//go:build !amd64

package sketch

func gaps(w, q, col []float64, stride, rows int, idx []int32, out []float64) int {
	return gapsGo(w, q, col, stride, rows, idx, out)
}
