package sketch

import (
	"math"
	"testing"
)

// FuzzCoarseGaps holds the column pass (gaps: SSE2 on amd64) to its Go loop
// (gapsGo) bit for bit, on the coarse geometry of a fuzzed series length n:
// W = min(n, 16) segments, so every W from 1 to 16, and the ragged spans an
// n that 16 does not divide gives. The column's rows lie stride = W + pad
// apart and are read densely and through a fuzzed row index whose entries
// may fall before or past the column, where both must stop at the same
// position. Values are int8s scaled by scale: near math.MaxFloat64 the
// squares and sums overflow to +Inf, and an infinite scale makes the values
// themselves infinite or NaN, so a bound can be NaN.
func FuzzCoarseGaps(f *testing.F) {
	f.Add(uint8(128), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, []byte{200, 7, 9, 100, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 1.0, uint8(0), []byte{1, 0, 2, 1})
	f.Add(uint8(7), []byte{127, 129, 0, 5, 6, 7, 8}, []byte{129, 127, 127, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1.7e308, uint8(2), []byte(nil))
	f.Add(uint8(130), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6}, make([]byte, 64), math.Inf(1), uint8(3), []byte{0, 5, 255, 1})
	f.Add(uint8(3), []byte{1, 2, 3}, []byte{3, 2, 1, 0, 1, 2}, 1e300, uint8(1), []byte{2, 3, 4})
	f.Fuzz(func(t *testing.T, n uint8, qs, cs []byte, scale float64, pad uint8, order []byte) {
		c := NewCoarse(max(int(n), 1))
		w := len(c.Weights)
		stride := w + int(pad%4)
		if len(qs) < w || len(cs) > 4096 || len(order) > 256 {
			return
		}
		values := func(b []byte) []float64 {
			v := make([]float64, len(b))
			for i := range v {
				v[i] = float64(int8(b[i])) / 128 * scale
			}
			return v
		}
		q, col := values(qs[:w]), values(cs)
		rows := 0
		if len(col) >= w {
			rows = (len(col)-w)/stride + 1
		}
		idx := make([]int32, len(order))
		for i, b := range order {
			idx[i] = int32(b)%int32(rows+2) - 1 // -1 and rows lie outside
		}
		for _, idx := range [][]int32{nil, idx} {
			count := rows + 1 // one position past the column
			if idx != nil {
				count = len(idx)
			}
			got, want := make([]float64, count), make([]float64, count)
			gi, wi := gaps(c.Weights, q, col, stride, rows, idx, got), gapsGo(c.Weights, q, col, stride, rows, idx, want)
			if gi != wi {
				t.Fatalf("n=%d stride=%d rows=%d idx=%v: the pass stopped at %d, the Go loop at %d", n, stride, rows, idx, gi, wi)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d stride=%d idx=%v q=%v col=%v: bound %d is %v, the Go loop's %v", n, stride, idx, q, col, i, got[i], want[i])
				}
			}
		}
	})
}
