package distance

import "math"

// The loops of the DTW cascade that run once per candidate cell or
// timestamp, in Go. On amd64 the same loops run in SSE2 assembly
// (kernels_amd64.s) and these are the references the tests hold it to bit
// for bit; on every other architecture they are the kernels
// (kernels_other.go).

// sweep4Cells is the state a sweep of four DP rows carries from column to
// column: row i's diagonal (row i-1's cell up and left), each row's left
// neighbour, and each row's running minimum. A sweep reads diag, starts
// the rest at +Inf, and leaves the last column's state.
type sweep4Cells struct {
	diag  float64
	cells [4]float64
	mins  [4]float64
}

// sweep4Go runs rows i to i+3 of the banded DP, whose x values are xs, over
// the columns whose y values are ys. rs is the DP row: it holds row i-1 on
// entry and row i+3 on return; the three rows between are kept in
// registers, each a cell ahead of the next. Every cell is cost +
// min(up, diag, left) with the builtin min, which the DP's finite inputs keep
// free of NaN and -0. The first len(pre)/4 columns add pre's four masks (one
// a row) to their costs and the last len(post)/4 post's: a mask of +Inf
// makes the cell +Inf, a row outside the band at that column, and a mask of
// +0 leaves the cost's bits as they are.
func sweep4Go(xs *[4]float64, ys, rs, pre, post []float64, c *sweep4Cells) {
	rs = rs[:len(ys)]
	np, nq := len(pre)/4, len(ys)-len(post)/4
	inf := math.Inf(1)
	diag, cells, mins := c.diag, [4]float64{inf, inf, inf, inf}, [4]float64{inf, inf, inf, inf}
	for k, yj := range ys {
		var mask []float64
		if k < np {
			mask = pre[4*k:]
		} else if k >= nq {
			mask = post[4*(k-nq):]
		}
		up := rs[k]
		u, dg := up, diag
		for r, left := range cells {
			d := xs[r] - yj
			cost := d * d
			if mask != nil {
				cost += mask[r]
			}
			v := cost + min(u, dg, left)
			u, dg, cells[r] = v, left, v
			mins[r] = min(mins[r], v)
		}
		rs[k] = cells[3]
		diag = up
	}
	*c = sweep4Cells{diag, cells, mins}
}

// lbKeoghGo is LB_Keogh's loop over q and the envelopes (all of one
// length): it adds each timestamp's term to the running sum, stores the
// term into terms when terms is not nil, and returns the sum as soon as it
// passes cutoff.
func lbKeoghGo(q, upper, lower, terms []float64, cutoff float64) float64 {
	var acc float64
	for i := range q {
		var t float64
		if d := q[i] - upper[i]; d > 0 {
			t = d * d
		} else if d := lower[i] - q[i]; d > 0 {
			t = d * d
		}
		acc += t
		if terms != nil {
			terms[i] = t
		}
		if acc > cutoff {
			return acc
		}
	}
	return acc
}
