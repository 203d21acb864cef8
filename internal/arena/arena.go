// Package arena provides contiguous columnar storage for fixed-stride
// float64 rows — the resident representation of series data and every
// per-series derived artifact (filtered vectors, envelopes, suffix
// energies).
//
// The motivation is the memory wall: a similarity scan is a streaming read
// over every candidate's vector, and when those vectors are individual heap
// allocations the scan chases pointers across the address space, defeating
// the hardware prefetcher and thrashing the TLB. An arena packs all rows
// back to back in one backing array, so a scan in row order is one long
// sequential read — the layout PIMDAL-style analytics engines identify as
// the difference between compute-bound and bandwidth-bound scans.
//
// Two types carry the package:
//
//   - Builder is the mutable, append-only accumulator a corpus writer owns.
//     Appending never disturbs previously returned row views: rows are only
//     ever written once, at the tail, and a reallocation (growth) leaves
//     old views pointing into the old backing array.
//   - Matrix is an immutable snapshot of a builder's rows. It is a plain
//     value (three words); copying it is free, and every row is addressed
//     by arithmetic (data[i*stride : i*stride+stride]) rather than through
//     a per-row slice header, so a hot loop touches no pointer array at
//     all.
//
// The copy-on-write contract with corpus snapshots: a snapshot captures
// Matrix() at publication; later Appends write only beyond the captured row
// count (possibly into spare capacity of the same backing array, which the
// capped Matrix can never observe), and Truncate only ever discards rows no
// Matrix has been captured over. Compact builds entirely new storage, so
// snapshots taken before a compaction keep reading the old arrays.
package arena

import "fmt"

// Matrix is an immutable, dense, row-major view of equal-stride rows in one
// contiguous backing array. The zero value is an empty matrix.
type Matrix struct {
	data   []float64
	stride int
	rows   int
}

// Rows returns the number of rows.
func (m Matrix) Rows() int { return m.rows }

// Stride returns the row width.
func (m Matrix) Stride() int { return m.stride }

// Row returns row i as a view into the backing array. The view's capacity
// is capped at its length, so appending to it can never overwrite a
// neighbouring row.
func (m Matrix) Row(i int) []float64 {
	off := i * m.stride
	return m.data[off : off+m.stride : off+m.stride]
}

// Data returns the backing array truncated to the matrix's rows — the bulk
// form serializers use to write all rows in one pass.
func (m Matrix) Data() []float64 { return m.data[: m.rows*m.stride : m.rows*m.stride] }

// Builder accumulates rows of a fixed stride in one growing backing array.
// It is not safe for concurrent use; corpus writers serialise on their own
// lock. The zero value is unusable — use NewBuilder.
type Builder struct {
	stride int
	data   []float64
}

// NewBuilder returns a builder for rows of the given stride with capacity
// preallocated for capRows rows (0 = no preallocation). stride must be
// positive.
func NewBuilder(stride, capRows int) *Builder {
	if stride <= 0 {
		panic(fmt.Sprintf("arena: stride %d must be positive", stride))
	}
	if capRows < 0 {
		capRows = 0
	}
	return &Builder{stride: stride, data: make([]float64, 0, stride*capRows)}
}

// Stride returns the row width.
func (b *Builder) Stride() int { return b.stride }

// Rows returns the number of appended rows.
func (b *Builder) Rows() int { return len(b.data) / b.stride }

// Grow reserves capacity for at least extra more rows and returns how many
// float64s it copied doing so: 0 while the spare capacity suffices, the
// whole resident arena when it reallocates. A reallocation at least doubles
// the capacity, so appending N rows in batches of any size reallocates
// O(log N) times and copies fewer than 2N rows in total — an append costs
// what it appends, amortised. The one append per doubling that reallocates
// still copies everything; views handed out before it keep reading the old
// backing array.
func (b *Builder) Grow(extra int) (copied int) {
	need := len(b.data) + extra*b.stride
	if extra <= 0 || need <= cap(b.data) {
		return 0
	}
	grown := make([]float64, len(b.data), max(need, 2*cap(b.data)))
	copy(grown, b.data)
	b.data = grown
	return len(grown)
}

// Append copies row into the arena and returns the resident view. row must
// have exactly the builder's stride.
func (b *Builder) Append(row []float64) []float64 {
	if len(row) != b.stride {
		panic(fmt.Sprintf("arena: appending a %d-wide row to a stride-%d arena", len(row), b.stride))
	}
	v := b.AppendZero()
	copy(v, row)
	return v
}

// AppendZero extends the arena by one zero row and returns its view, for
// callers that compute the row in place (filters, envelopes) without a
// temporary.
func (b *Builder) AppendZero() []float64 {
	b.Grow(1)
	off := len(b.data)
	b.data = b.data[: off+b.stride : cap(b.data)]
	row := b.data[off : off+b.stride : off+b.stride]
	// Spare capacity may hold bytes left by a Truncate.
	clear(row)
	return row
}

// Truncate discards rows from the tail until exactly rows remain — the
// rollback a corpus writer needs when a mutation aborts after staging rows
// no snapshot has been captured over. Truncating below a published Matrix's
// row count corrupts the COW contract; callers must only truncate staged
// (unpublished) rows.
func (b *Builder) Truncate(rows int) {
	if rows < 0 || rows > b.Rows() {
		panic(fmt.Sprintf("arena: truncate to %d rows of %d", rows, b.Rows()))
	}
	b.data = b.data[: rows*b.stride : cap(b.data)]
}

// Matrix captures the builder's current rows as an immutable view. Later
// appends are invisible through it (the view is capped), and later
// compactions switch the builder to new storage without disturbing it.
func (b *Builder) Matrix() Matrix {
	return Matrix{data: b.data[:len(b.data):len(b.data)], stride: b.stride, rows: b.Rows()}
}

// Compact returns a new builder holding only the rows whose indices appear
// in keep, in keep order, in freshly allocated storage. The receiver is
// left untouched (snapshots over it stay valid); the caller adopts the
// returned builder as the live arena.
func (b *Builder) Compact(keep []int) *Builder {
	nb := NewBuilder(b.stride, len(keep))
	for _, i := range keep {
		if i < 0 || i >= b.Rows() {
			panic(fmt.Sprintf("arena: compact keeps row %d of %d", i, b.Rows()))
		}
		nb.data = append(nb.data, b.data[i*b.stride:(i+1)*b.stride]...)
	}
	return nb
}
