package arena

import (
	"testing"
)

func row(vals ...float64) []float64 { return vals }

func TestAppendAndRowViews(t *testing.T) {
	b := NewBuilder(3, 0)
	v0 := b.Append(row(1, 2, 3))
	v1 := b.Append(row(4, 5, 6))
	if b.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", b.Rows())
	}
	if v0[0] != 1 || v0[2] != 3 || v1[1] != 5 {
		t.Fatalf("views read back wrong: %v %v", v0, v1)
	}
	m := b.Matrix()
	if m.Rows() != 2 || m.Stride() != 3 {
		t.Fatalf("matrix %dx%d, want 2x3", m.Rows(), m.Stride())
	}
	for i := 0; i < 2; i++ {
		r := m.Row(i)
		for j := range r {
			if want := float64(i*3 + j + 1); r[j] != want {
				t.Fatalf("m.Row(%d)[%d] = %v, want %v", i, j, r[j], want)
			}
		}
	}
	if got := m.Data(); len(got) != 6 || got[0] != 1 || got[5] != 6 {
		t.Fatalf("Data() = %v", got)
	}
}

// A captured Matrix must never observe later appends, whether they land in
// spare capacity of the same backing array or force a reallocation.
func TestMatrixIsImmuneToLaterAppends(t *testing.T) {
	b := NewBuilder(2, 8) // room for in-place appends
	b.Append(row(1, 2))
	m := b.Matrix()
	v := b.Append(row(3, 4)) // fits in capacity: same backing array
	if m.Rows() != 1 {
		t.Fatalf("snapshot rows grew to %d", m.Rows())
	}
	r := m.Row(0)
	if r[0] != 1 || r[1] != 2 {
		t.Fatalf("snapshot row changed: %v", r)
	}
	// The snapshot's views are capped: appending through them cannot reach
	// the neighbouring row.
	grown := append(r, 99)
	_ = grown
	if v[0] != 3 {
		t.Fatalf("append through a capped view overwrote the next row: %v", v)
	}
	for i := 0; i < 100; i++ { // force several reallocations
		b.Append(row(float64(i), float64(-i)))
	}
	if r := m.Row(0); r[0] != 1 || r[1] != 2 {
		t.Fatalf("snapshot row changed after reallocation: %v", r)
	}
}

func TestTruncateRollsBackStagedRows(t *testing.T) {
	b := NewBuilder(2, 4)
	b.Append(row(1, 2))
	m := b.Matrix()
	b.Append(row(3, 4))
	b.Append(row(5, 6))
	b.Truncate(1)
	if b.Rows() != 1 {
		t.Fatalf("rows = %d after truncate, want 1", b.Rows())
	}
	// The staged bytes must not leak into a later append's zero row.
	z := b.AppendZero()
	for j, x := range z {
		if x != 0 {
			t.Fatalf("AppendZero()[%d] = %v after truncate, want 0", j, x)
		}
	}
	if r := m.Row(0); r[0] != 1 || r[1] != 2 {
		t.Fatalf("published row disturbed by truncate cycle: %v", r)
	}
}

func TestCompactLeavesOldStorageIntact(t *testing.T) {
	b := NewBuilder(2, 0)
	for i := 0; i < 5; i++ {
		b.Append(row(float64(i), float64(10*i)))
	}
	old := b.Matrix()
	nb := b.Compact([]int{0, 2, 4})
	if nb.Rows() != 3 {
		t.Fatalf("compacted rows = %d, want 3", nb.Rows())
	}
	nm := nb.Matrix()
	for k, src := range []int{0, 2, 4} {
		if got, want := nm.Row(k)[0], float64(src); got != want {
			t.Fatalf("compacted row %d starts with %v, want %v", k, got, want)
		}
	}
	// Writing through the new builder can never reach the old matrix.
	nm.Row(0)[0] = -1
	if old.Row(0)[0] != 0 {
		t.Fatalf("compaction aliases old storage")
	}
	for i := 0; i < 5; i++ {
		if got := old.Row(i)[1]; got != float64(10*i) {
			t.Fatalf("old matrix row %d = %v after compact", i, got)
		}
	}
}

func TestGrowPreservesRowsAndAvoidsRealloc(t *testing.T) {
	b := NewBuilder(4, 0)
	b.Append(row(1, 2, 3, 4))
	b.Grow(1000)
	if b.Rows() != 1 || b.Matrix().Row(0)[3] != 4 {
		t.Fatalf("grow disturbed existing rows")
	}
	v := b.Matrix().Row(0)
	for i := 0; i < 1000; i++ {
		b.Append(row(5, 6, 7, 8))
	}
	if v[0] != 1 {
		t.Fatalf("row view invalidated by appends within reserved capacity")
	}
}

// TestGrowIsGeometric is the write path's cost bound, in counts: appending N
// rows in batches of k reallocates O(log N) times and copies fewer than 2N
// rows in all, for every k — so an append costs what it appends, amortised —
// and a view handed out before a reallocation keeps reading its old values.
func TestGrowIsGeometric(t *testing.T) {
	const stride, total = 4, 1 << 14
	for _, k := range []int{1, 8, 512} {
		b := NewBuilder(stride, 0)
		reallocs, copied := 0, 0
		var views [][]float64 // one view captured just before each reallocation
		for b.Rows() < total {
			before := b.Matrix()
			if n := b.Grow(k); n > 0 {
				reallocs++
				copied += n
				views = append(views, before.Row(before.Rows()-1))
			}
			for i := 0; i < k; i++ {
				r := float64(b.Rows())
				b.Append(row(r, r, r, r))
			}
		}
		// Doubling from k rows reaches total in log2(total/k) steps, plus the
		// first allocation (which copies nothing, so Grow does not report it).
		if limit := 15; reallocs > limit {
			t.Errorf("k=%d: %d reallocations over %d rows, want O(log N) <= %d", k, reallocs, total, limit)
		}
		if copied >= 2*total*stride {
			t.Errorf("k=%d: growth copied %d float64s for %d resident, want < 2x", k, copied, total*stride)
		}
		m := b.Matrix()
		for _, v := range views {
			i := int(v[0])
			if v[0] != v[3] || &v[0] == &m.Row(i)[0] {
				t.Fatalf("k=%d: the view of row %d taken before a reallocation reads %v, or aliases the new array", k, i, v)
			}
			if cur := m.Row(i); cur[0] != v[0] || cur[3] != v[3] {
				t.Fatalf("k=%d: row %d reads %v after reallocation, %v before", k, i, cur, v)
			}
		}
		if len(views) != reallocs || reallocs == 0 {
			t.Fatalf("k=%d: %d views over %d reallocations", k, len(views), reallocs)
		}
	}
}
