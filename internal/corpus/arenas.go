package corpus

import (
	"uncertts/internal/arena"
	"uncertts/internal/sketch"
)

// arenas bundles the columnar builders holding every float64 artifact of
// the resident series: one arena per artifact, one row per entry, rows in
// insertion order. All arenas always hold the same number of rows — every
// successful insert appends exactly one row to each — so a single row index
// addresses an entry's artifacts across all of them.
//
// The builders live on the Corpus (guarded by its write lock); snapshots
// capture immutable arena.Matrix views at publication. Deletes leave dead
// rows behind; compact() rebuilds the arenas densely once too much of the
// storage is dead.
type arenas struct {
	values *arena.Builder // observations, stride n
	uma    *arena.Builder // UMA-filtered vectors, stride n
	uema   *arena.Builder // UEMA-filtered vectors, stride n
	upper  *arena.Builder // LB_Keogh upper envelopes, stride n
	lower  *arena.Builder // LB_Keogh lower envelopes, stride n
	sketch *arena.Builder // PAA sketch rows for the DTW bound, stride lay.Stride()

	// The dense filter columns: the coarse segment means of the raw, UMA
	// and UEMA vectors (stride coarse.W() each) and the total squared
	// observation energy (stride 1) — tier 0 of the engine's lock-step
	// scans, and the energy PROUD's unseen-gap bound reads. Derived like
	// every other artifact, and like the sketch rows never persisted:
	// recovery recomputes them through build.
	coarseV, coarseU, coarseE, energy *arena.Builder

	// lay is the sketch-row geometry all sketch rows share; coarse is the
	// filter-column geometry.
	lay    sketch.Layout
	coarse sketch.Coarse

	// copied is the running total of float64s growth has copied over the
	// corpus' lifetime (compactions carry it forward): under Grow's doubling
	// it stays below twice the resident arena size, whatever the batch size.
	// uncertts_corpus_copied_bytes_total adds up the same copies in bytes.
	copied int64
}

// newArenas allocates the builder set for series of length n, with capacity
// reserved for capRows series.
func newArenas(n, capRows int) *arenas {
	lay := sketch.NewLayout(n, sketch.DefaultSegments)
	coarse := sketch.NewCoarse(n)
	return &arenas{
		values: arena.NewBuilder(n, capRows),
		uma:    arena.NewBuilder(n, capRows),
		uema:   arena.NewBuilder(n, capRows),
		upper:  arena.NewBuilder(n, capRows),
		lower:  arena.NewBuilder(n, capRows),
		sketch: arena.NewBuilder(lay.Stride(), capRows),

		coarseV: arena.NewBuilder(coarse.W(), capRows),
		coarseU: arena.NewBuilder(coarse.W(), capRows),
		coarseE: arena.NewBuilder(coarse.W(), capRows),
		energy:  arena.NewBuilder(1, capRows),

		lay:    lay,
		coarse: coarse,
	}
}

// rows returns the common row count.
func (a *arenas) rows() int { return a.values.Rows() }

// grow reserves capacity for extra more rows in every builder and reports
// whether doing so moved resident rows to new backing arrays (the builders
// hold equal row counts and grow by the same rule, so they move together).
func (a *arenas) grow(extra int) bool {
	before := a.copied
	for _, b := range a.all() {
		a.copied += int64(b.Grow(extra))
	}
	copiedBytes.Add(8 * (a.copied - before))
	return a.copied > before
}

// truncate rolls every builder back to the given row count — the abort path
// of a mutation that staged rows no snapshot has been captured over.
func (a *arenas) truncate(rows int) {
	for _, b := range a.all() {
		b.Truncate(rows)
	}
}

// width returns the float64s a row takes across every arena.
func (a *arenas) width() int {
	w := 0
	for _, b := range a.all() {
		w += b.Stride()
	}
	return w
}

func (a *arenas) all() []*arena.Builder {
	return []*arena.Builder{
		a.values, a.uma, a.uema, a.upper, a.lower, a.sketch,
		a.coarseV, a.coarseU, a.coarseE, a.energy,
	}
}

// compact rebuilds every arena with only the rows of the surviving entries,
// in entry position order, in fresh storage (published snapshots keep
// reading the old arrays), and returns the compacted set. Row i of the new
// arenas holds entry i's artifacts — density restored.
func (a *arenas) compact(keep []int) *arenas {
	return &arenas{
		values: a.values.Compact(keep),
		uma:    a.uma.Compact(keep),
		uema:   a.uema.Compact(keep),
		upper:  a.upper.Compact(keep),
		lower:  a.lower.Compact(keep),
		sketch: a.sketch.Compact(keep),

		coarseV: a.coarseV.Compact(keep),
		coarseU: a.coarseU.Compact(keep),
		coarseE: a.coarseE.Compact(keep),
		energy:  a.energy.Compact(keep),

		lay:    a.lay,
		coarse: a.coarse,
		copied: a.copied,
	}
}

// Columns is the columnar view of a snapshot: one arena.Matrix per artifact
// and the row index that addresses them by snapshot position. Engines drive
// their scans over it — contiguous memory read by arithmetic — instead of
// chasing per-entry slice headers. Snapshot.Columns hands it out on dense
// snapshots only, where a row is a position; Snapshot.Arena always.
type Columns struct {
	// Rows maps a snapshot position to the arena row holding that entry's
	// artifacts. It is nil on dense snapshots (row i is position i) and
	// strictly increasing otherwise: rows and positions are both in insertion
	// order, and the rows it skips belong to deleted series awaiting
	// compaction.
	Rows []int32
	// Values holds the observation vectors (stride = series length).
	Values arena.Matrix
	// UMA and UEMA hold the filtered vectors of the corpus filter config.
	UMA, UEMA arena.Matrix
	// Upper and Lower hold the LB_Keogh envelopes for the corpus band.
	Upper, Lower arena.Matrix
	// Sketch holds the PAA sketch rows DTW's bound reads (stride = the
	// sketch layout's stride; Snapshot.Index builds its tree over them).
	Sketch arena.Matrix
	// CoarseV, CoarseU and CoarseE hold the coarse segment means of the
	// raw, UMA and UEMA vectors (stride = sketch.NewCoarse(length).W()),
	// and Energy the total squared observation energy (stride 1, so
	// Energy.Data()[i] is series i's; proud.Energy of the observations): the
	// dense filter columns the lock-step scans read before any full-length
	// row. PROUD reads Energy to bound the gap its accumulation has not
	// reached yet.
	CoarseV, CoarseU, CoarseE, Energy arena.Matrix
}

// capture freezes the current builder state as a columnar view.
func (a *arenas) capture() *Columns {
	return &Columns{
		Values: a.values.Matrix(),
		UMA:    a.uma.Matrix(),
		UEMA:   a.uema.Matrix(),
		Upper:  a.upper.Matrix(),
		Lower:  a.lower.Matrix(),
		Sketch: a.sketch.Matrix(),

		CoarseV: a.coarseV.Matrix(),
		CoarseU: a.coarseU.Matrix(),
		CoarseE: a.coarseE.Matrix(),
		Energy:  a.energy.Matrix(),
	}
}
