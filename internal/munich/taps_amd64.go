package munich

// addTaps is addTapsGo in SSE2 assembly (taps_amd64.s).
//
//go:noescape
func addTaps(dst, src []float64, offs []int)

// scale is scaleGo in SSE2 assembly (taps_amd64.s).
//
//go:noescape
func scale(dst, src []float64, w float64)
