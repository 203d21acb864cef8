package distance

// sweep4 is sweep4Go in SSE2 assembly (kernels_amd64.s).
//
//go:noescape
func sweep4(xs *[4]float64, ys, rs, pre, post []float64, c *sweep4Cells)

// lbKeoghTerms is lbKeoghGo in SSE2 assembly (kernels_amd64.s).
//
//go:noescape
func lbKeoghTerms(q, upper, lower, terms []float64, cutoff float64) float64
