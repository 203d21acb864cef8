package sketch

// gaps is gapsGo in SSE2 assembly (gaps_amd64.s).
//
//go:noescape
func gaps(w, q, col []float64, stride, rows int, idx []int32, out []float64) int
