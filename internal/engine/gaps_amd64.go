package engine

// envelopeGaps is envelopeGapsGo in SSE2 assembly (gaps_amd64.s).
//
//go:noescape
func envelopeGaps(widths, qpaa, qlo, qhi, paa, klo, khi []float64) (fwd, rev float64)
