package engine

// envelopeGaps is envelopeGapsGo in SSE2 assembly (gaps_amd64.s).
//
//go:noescape
func envelopeGaps(widths, qpaa, qlo, qhi, paa, klo, khi []float64) (fwd, rev float64)

// prefetch asks for the first cache lines of x ahead of their first read
// (gaps_amd64.s); elsewhere it does nothing. It is a hint: nothing reads it.
//
//go:noescape
func prefetch(x []float64)
