// Package a seeds writes through arena and corpus snapshot views for the
// arenawrite analyzer's analysistest run.
package a

import (
	"uncertts/internal/arena"
	"uncertts/internal/corpus"
)

func direct(m arena.Matrix) {
	m.Row(0)[1] = 5             // want `write through arena\.Matrix\.Row\(\)`
	copy(m.Data(), []float64{}) // want `copy into arena\.Matrix\.Data\(\)`
}

func throughLocals(m arena.Matrix, src []float64) {
	row := m.Row(0)
	row[0] = 1  // want `write through a local alias of a snapshot view`
	row[2] += 3 // want `write through a local alias of a snapshot view`

	sub := m.Row(1)[1:]
	sub[0]++ // want `\+\+ through a local alias of a snapshot view`

	d := m.Data()
	copy(d, src) // want `copy into a local alias of a snapshot view`

	alias := d
	alias[9] = 0 // want `write through a local alias of a snapshot view`
}

func entryViews(e *corpus.Entry, src []float64) {
	e.Lower[0] = 1            // want `write through corpus entry view \.Lower`
	copy(e.Upper, src)        // want `copy into corpus entry view \.Upper`
	e.PDF.Observations[0] = 2 // want `write through corpus entry view \.Observations`
	e.Env.Lo[0] = 3           // want `write through corpus entry view \.Lo`
	up := e.Upper
	up[1] = 0.5 // want `write through a local alias of a snapshot view`
}

func snapshotColumns(s *corpus.Snapshot) {
	cols, ok := s.Columns()
	if !ok {
		return
	}
	cols.UMA.Row(3)[0] = 1 // want `write through arena\.Matrix\.Row\(\)`
}

func snapshotArena(s *corpus.Snapshot) int {
	cols := s.Arena()
	cols.Rows[0] = 7                        // want `write through corpus columns view \.Rows`
	cols.Energy.Row(int(cols.Rows[1]))[0]++ // want `\+\+ through arena\.Matrix\.Row\(\)`
	tail := cols.Rows[2:]
	copy(tail, cols.Rows) // want `copy into a local alias of a snapshot view`

	// Reading the index, and writing a private copy of it, is legal.
	own := append([]int32(nil), cols.Rows...)
	own[0] = cols.Rows[1]
	//lint:allow arenawrite proving the suppression path on the row index
	cols.Rows[3] = 0
	return int(own[0]) + cols.Values.Rows()
}

func legal(b *arena.Builder, m arena.Matrix, e *corpus.Entry) float64 {
	// Builder rows are writer-owned until published.
	row := b.AppendZero()
	row[0] = 1
	// Reading views is the whole point.
	v := m.Row(0)[1] + e.Upper[2]
	// Plain local slices are nobody's views.
	local := make([]float64, 4)
	local[3] = v
	copy(local, e.Lower)
	return local[3]
}

func suppressed(m arena.Matrix) {
	//lint:allow arenawrite proving the suppression path for the test harness
	m.Row(0)[0] = 42
}
