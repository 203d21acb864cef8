package sketch

import (
	"math"
	"sort"
	"testing"

	"uncertts/internal/arena"
	"uncertts/internal/distance"
	"uncertts/internal/stats"
)

// genRow builds one synthetic series' sketch row plus the raw artifacts the
// bounds are checked against.
type genSeries struct {
	values, upper, lower []float64
}

func genRows(t *testing.T, lay Layout, b *arena.Builder, count int, seed int64) []genSeries {
	t.Helper()
	out := make([]genSeries, count)
	for i := range out {
		rng := stats.SplitRand(seed, int64(i))
		vals := make([]float64, lay.N)
		for t := range vals {
			vals[t] = math.Sin(float64(t)*(0.05+0.3*rng.Float64())) + 0.5*rng.NormFloat64()
		}
		upper, lower := distance.Envelope(vals, 3)
		lay.FillRow(b.AppendZero(), vals, upper, lower)
		out[i] = genSeries{values: vals, upper: upper, lower: lower}
	}
	return out
}

func TestLayoutGeometry(t *testing.T) {
	lay := NewLayout(100, 16)
	if lay.W != 16 {
		t.Fatalf("layout resolved W=%d, want 16", lay.W)
	}
	if got, want := lay.Stride(), 3*16+2; got != want {
		t.Fatalf("stride = %d, want %d", got, want)
	}
	if lay.OffVLast() != lay.Stride()-1 {
		t.Fatalf("vLast offset %d is not the last column of stride %d", lay.OffVLast(), lay.Stride())
	}
	if got := len(lay.Interior()); got != 14 {
		t.Fatalf("interior spans = %d, want 14 (W minus the two edge segments)", got)
	}
	if tiny := NewLayout(4, 2); tiny.Interior() != nil {
		t.Fatalf("interior for W=2 should be nil, got %v", tiny.Interior())
	}
	// W clamps to short series; zero adopts the default.
	if short := NewLayout(5, 16); short.W != 5 {
		t.Fatalf("W = %d for length 5, want clamp to 5", short.W)
	}
	if def := NewLayout(100, 0); def.W != DefaultSegments {
		t.Fatalf("W = %d for zero config, want %d", def.W, DefaultSegments)
	}
	// Spans tile [0, N) exactly.
	covered := 0
	for _, sp := range lay.Spans {
		covered += sp[1] - sp[0]
	}
	if covered != lay.N {
		t.Fatalf("spans cover %d of %d timestamps", covered, lay.N)
	}
}

func TestPAAInto(t *testing.T) {
	spans := [][2]int{{0, 2}, {2, 5}}
	dst := make([]float64, 2)
	PAAInto(dst, []float64{1, 3, 2, 4, 6}, spans)
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("PAA = %v, want [2 4]", dst)
	}
}

// TestCoarseGeometry pins the filter-column layout for the lengths the
// segment count does not divide or exceed, and GapSquared against its
// definition: the span-weighted squared gap of the segment means, which
// equals the squared distance when every segment is one timestamp wide.
func TestCoarseGeometry(t *testing.T) {
	for _, tc := range []struct{ n, w, maxSpan int }{{1, 1, 1}, {5, 5, 1}, {16, 16, 1}, {127, 16, 8}, {128, 16, 8}, {130, 16, 9}} {
		c := NewCoarse(tc.n)
		if c.W() != tc.w || c.MaxSpan != float64(tc.maxSpan) {
			t.Fatalf("NewCoarse(%d): W = %d, MaxSpan = %g, want %d, %d", tc.n, c.W(), c.MaxSpan, tc.w, tc.maxSpan)
		}
		if c.Spans[0][0] != 0 || c.Spans[c.W()-1][1] != tc.n {
			t.Fatalf("NewCoarse(%d): spans %v do not cover the series", tc.n, c.Spans)
		}
		rng := stats.SplitRand(3, int64(tc.n))
		q, x := make([]float64, tc.n), make([]float64, tc.n)
		for i := range q {
			q[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		qc, xc := PAA(q, c.Spans), PAA(x, c.Spans)
		var want, exact float64
		for j := range qc {
			want += c.Weights[j] * (qc[j] - xc[j]) * (qc[j] - xc[j])
		}
		for i := range q {
			exact += (q[i] - x[i]) * (q[i] - x[i])
		}
		got := c.GapSquared(qc, xc)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("n=%d: GapSquared = %g, want %g", tc.n, got, want)
		}
		if got > exact*(1+1e-12) || (tc.w == tc.n && math.Abs(got-exact) > 1e-12*exact) {
			t.Fatalf("n=%d: GapSquared = %g against the squared distance %g", tc.n, got, exact)
		}
	}
}

// TestMinDistSoundness checks the per-measure bound chain on random data:
// the Euclidean bound under the true squared distance, and the DTW bound
// under LB_Keogh^2 (itself a lower bound on DTW^2).
func TestMinDistSoundness(t *testing.T) {
	lay := NewLayout(64, 8)
	b := arena.NewBuilder(lay.Stride(), 0)
	series := genRows(t, lay, b, 40, 11)
	mat := b.Matrix()
	members := make([]Member, len(series))
	for i := range members {
		members[i] = Member{ID: i, Row: i}
	}
	tree := Build(lay, 8, members, mat)
	buckets := tree.Buckets()
	if len(buckets) < 2 {
		t.Fatalf("expected multiple buckets, got %d", len(buckets))
	}
	w := lay.W
	interior := lay.Interior()
	gap2 := func(v, lo, hi float64) float64 {
		switch {
		case v < lo:
			return (lo - v) * (lo - v)
		case v > hi:
			return (v - hi) * (v - hi)
		}
		return 0
	}
	var scratch distance.DTWScratch
	for qi := 0; qi < 10; qi++ {
		q := series[qi].values
		qpaa := PAA(q, lay.Spans)
		qu, ql := distance.Envelope(q, 3)
		quSeg, qlSeg := PAA(qu, lay.Spans), PAA(ql, lay.Spans)
		for _, bk := range buckets {
			eucl := MinDistSquared(qpaa, bk.Lo[:w], bk.Hi[:w], lay.Spans)
			kim := gap2(q[0], bk.Lo[lay.OffV0()], bk.Hi[lay.OffV0()]) +
				gap2(q[lay.N-1], bk.Lo[lay.OffVLast()], bk.Hi[lay.OffVLast()])
			fwd := MinDistSquared(qpaa[1:w-1], bk.Lo[lay.OffKLo()+1:lay.OffKLo()+w-1], bk.Hi[lay.OffKHi()+1:lay.OffKHi()+w-1], interior)
			rev := IntervalMinDistSquared(bk.Lo[1:w-1], bk.Hi[1:w-1], qlSeg[1:w-1], quSeg[1:w-1], interior)
			dtwLB := kim + math.Max(fwd, rev)
			for _, m := range bk.Members {
				s := series[m.ID]
				var d2, keogh2 float64
				for t := range q {
					gap := q[t] - s.values[t]
					d2 += gap * gap
					switch {
					case q[t] > s.upper[t]:
						g := q[t] - s.upper[t]
						keogh2 += g * g
					case q[t] < s.lower[t]:
						g := s.lower[t] - q[t]
						keogh2 += g * g
					}
				}
				if eucl > d2*(1+1e-12)+1e-12 {
					t.Fatalf("query %d member %d: Euclidean bound %g exceeds true d2 %g", qi, m.ID, eucl, d2)
				}
				dtwTrue, _, _ := distance.DTWBandEarlyAbandonScratch(q, s.values, 3, math.Inf(1), nil, &scratch)
				if dtwLB > dtwTrue*dtwTrue*(1+1e-12)+1e-12 {
					t.Fatalf("query %d member %d: DTW bound %g exceeds true DTW^2 %g (keogh2 %g)",
						qi, m.ID, dtwLB, dtwTrue*dtwTrue, keogh2)
				}
			}
		}
	}
}

// TestBoundedVariants pins the abandonment contract of the Bounded/Over
// forms against the eager sums: the decision must be identical to comparing
// the full value, and a surviving evaluation must return the exact sum.
func TestBoundedVariants(t *testing.T) {
	lay := NewLayout(64, 8)
	b := arena.NewBuilder(lay.Stride(), 0)
	series := genRows(t, lay, b, 30, 5)
	mat := b.Matrix()
	members := make([]Member, len(series))
	for i := range members {
		members[i] = Member{ID: i, Row: i}
	}
	tree := Build(lay, 8, members, mat)
	w := lay.W
	for qi := 0; qi < 5; qi++ {
		qpaa := PAA(series[qi].values, lay.Spans)
		qu, ql := distance.Envelope(series[qi].values, 3)
		quSeg, qlSeg := PAA(qu, lay.Spans), PAA(ql, lay.Spans)
		for _, bk := range tree.Buckets() {
			full := MinDistSquared(qpaa, bk.Lo[:w], bk.Hi[:w], lay.Spans)
			ifull := IntervalMinDistSquared(bk.Lo[:w], bk.Hi[:w], qlSeg, quSeg, lay.Spans)
			for _, limit := range []float64{0, full / 2, full, full * 2, math.Inf(1)} {
				v, over := MinDistSquaredBounded(qpaa, bk.Lo[:w], bk.Hi[:w], lay.Spans, limit)
				if over != (full > limit) {
					t.Fatalf("MinDistSquaredBounded over=%v, want full %g > limit %g", over, full, limit)
				}
				if !over && v != full {
					t.Fatalf("MinDistSquaredBounded survived with %g, want exact %g", v, full)
				}
				if over != MinDistSquaredOver(qpaa, bk.Lo[:w], bk.Hi[:w], lay.Spans, limit) {
					t.Fatalf("MinDistSquaredOver disagrees with Bounded at limit %g", limit)
				}
				iv, iover := IntervalMinDistSquaredBounded(bk.Lo[:w], bk.Hi[:w], qlSeg, quSeg, lay.Spans, limit)
				if iover != (ifull > limit) {
					t.Fatalf("IntervalMinDistSquaredBounded over=%v, want full %g > limit %g", iover, ifull, limit)
				}
				if !iover && iv != ifull {
					t.Fatalf("IntervalMinDistSquaredBounded survived with %g, want exact %g", iv, ifull)
				}
				if iover != IntervalMinDistSquaredOver(bk.Lo[:w], bk.Hi[:w], qlSeg, quSeg, lay.Spans, limit) {
					t.Fatalf("IntervalMinDistSquaredOver disagrees with Bounded at limit %g", limit)
				}
			}
		}
	}
}

// TestLocate checks that descending by a member's own raw-value PAA symbols
// lands on the bucket that holds it — inserts descend the same way — and
// that the returned index is in Buckets() order.
func TestLocate(t *testing.T) {
	lay := NewLayout(32, 8)
	b := arena.NewBuilder(lay.Stride(), 0)
	genRows(t, lay, b, 100, 7)
	mat := b.Matrix()
	members := make([]Member, 100)
	for i := range members {
		members[i] = Member{ID: i, Row: i}
	}
	tree := Build(lay, 8, members, mat)
	buckets := tree.Buckets()
	for _, m := range members {
		bi := tree.Locate(mat.Row(m.Row)[:lay.W])
		if bi < 0 || bi >= len(buckets) {
			t.Fatalf("Locate(member %d) = %d, want a bucket index in [0, %d)", m.ID, bi, len(buckets))
		}
		found := false
		for _, bm := range buckets[bi].Members {
			if bm.ID == m.ID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("Locate(member %d) = bucket %d, which does not hold it", m.ID, bi)
		}
	}
	if bi := NewTree(lay, 8).Locate(make([]float64, lay.W)); bi != -1 {
		t.Fatalf("Locate on empty tree = %d, want -1", bi)
	}
}

// collectIDs returns the sorted member IDs across all buckets, failing on
// duplicates.
func collectIDs(t *testing.T, tree *Tree) []int {
	t.Helper()
	seen := map[int]bool{}
	var ids []int
	for _, bk := range tree.Buckets() {
		for _, m := range bk.Members {
			if seen[m.ID] {
				t.Fatalf("member %d appears in two buckets", m.ID)
			}
			seen[m.ID] = true
			ids = append(ids, m.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func TestTreeBuildInvariants(t *testing.T) {
	lay := NewLayout(32, 8)
	b := arena.NewBuilder(lay.Stride(), 0)
	genRows(t, lay, b, 100, 7)
	mat := b.Matrix()
	members := make([]Member, 100)
	for i := range members {
		members[i] = Member{ID: i, Row: i}
	}
	tree := Build(lay, 8, members, mat)
	if tree.Len() != 100 {
		t.Fatalf("tree.Len() = %d, want 100", tree.Len())
	}
	ids := collectIDs(t, tree)
	if len(ids) != 100 || ids[0] != 0 || ids[99] != 99 {
		t.Fatalf("buckets cover %d members (%v...), want all 100", len(ids), ids[:min(5, len(ids))])
	}
	for _, bk := range tree.Buckets() {
		if len(bk.Members) > tree.LeafCap() {
			// Only identical-symbol leaves may overflow; random data can't.
			t.Fatalf("bucket holds %d members over cap %d", len(bk.Members), tree.LeafCap())
		}
		for _, m := range bk.Members {
			row := mat.Row(m.Row)
			for i, v := range row {
				if v < bk.Lo[i] || v > bk.Hi[i] {
					t.Fatalf("member %d column %d = %g outside region [%g, %g]", m.ID, i, v, bk.Lo[i], bk.Hi[i])
				}
			}
		}
	}
}

// TestTreePersistentUpdate checks that Update leaves the receiver intact
// and that incremental maintenance converges to the same member set as a
// bulk build.
func TestTreePersistentUpdate(t *testing.T) {
	lay := NewLayout(32, 8)
	b := arena.NewBuilder(lay.Stride(), 0)
	genRows(t, lay, b, 60, 3)
	mat := b.Matrix()
	all := make([]Member, 60)
	for i := range all {
		all[i] = Member{ID: i, Row: i}
	}

	base := Build(lay, 4, all[:40], mat)
	baseIDs := collectIDs(t, base)

	// Delete ten, insert the remaining twenty, in one batch.
	next := base.Update(mat, all[40:], all[:10])
	if next.Len() != 50 {
		t.Fatalf("updated tree has %d members, want 50", next.Len())
	}
	nextIDs := collectIDs(t, next)
	want := make([]int, 0, 50)
	for i := 10; i < 60; i++ {
		want = append(want, i)
	}
	for i, id := range nextIDs {
		if id != want[i] {
			t.Fatalf("updated member set %v..., want %v...", nextIDs[:min(8, len(nextIDs))], want[:8])
		}
	}

	// The base version is untouched (persistence).
	afterIDs := collectIDs(t, base)
	if len(afterIDs) != len(baseIDs) {
		t.Fatalf("base tree changed under Update: %d members, had %d", len(afterIDs), len(baseIDs))
	}
	for i := range baseIDs {
		if afterIDs[i] != baseIDs[i] {
			t.Fatalf("base tree member set changed under Update")
		}
	}

	// Region containment still holds after churn.
	for _, bk := range next.Buckets() {
		for _, m := range bk.Members {
			row := mat.Row(m.Row)
			for i, v := range row {
				if v < bk.Lo[i] || v > bk.Hi[i] {
					t.Fatalf("post-update member %d column %d outside region", m.ID, i)
				}
			}
		}
	}
}

// TestTreeDegenerateSplit: identical rows cannot split and are left in one
// overflowing leaf rather than looping.
func TestTreeDegenerateSplit(t *testing.T) {
	lay := NewLayout(16, 4)
	b := arena.NewBuilder(lay.Stride(), 0)
	row := make([]float64, lay.Stride())
	for i := range row {
		row[i] = 1.5
	}
	for i := 0; i < 20; i++ {
		b.Append(row)
	}
	mat := b.Matrix()
	members := make([]Member, 20)
	for i := range members {
		members[i] = Member{ID: i, Row: i}
	}
	tree := Build(lay, 4, members, mat)
	buckets := tree.Buckets()
	if len(buckets) != 1 || len(buckets[0].Members) != 20 {
		t.Fatalf("degenerate build produced %d buckets, want one overflowing leaf", len(buckets))
	}
}
