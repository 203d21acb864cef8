//go:build !amd64

package engine

func envelopeGaps(widths, qpaa, qlo, qhi, paa, klo, khi []float64) (fwd, rev float64) {
	return envelopeGapsGo(widths, qpaa, qlo, qhi, paa, klo, khi)
}

func prefetch([]float64) {}
