//go:build !amd64

package distance

func sweep4(xs *[4]float64, ys, rs, pre, post []float64, c *sweep4Cells) {
	sweep4Go(xs, ys, rs, pre, post, c)
}

func lbKeoghTerms(q, upper, lower, terms []float64, cutoff float64) float64 {
	return lbKeoghGo(q, upper, lower, terms, cutoff)
}
