//go:build !amd64

package munich

func addTaps(dst, src []float64, offs []int) { addTapsGo(dst, src, offs) }

func scale(dst, src []float64, w float64) { scaleGo(dst, src, w) }
