package corpus

import (
	"cmp"
	"errors"
	"slices"

	"uncertts/internal/dust"
	"uncertts/internal/munich"
	"uncertts/internal/sketch"
	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// Snapshot is one immutable version of the corpus. Everything reachable
// from a snapshot — the entry slice, every entry, every artifact — is
// frozen at publication; readers may keep using a snapshot for as long as
// they like while the corpus moves on.
type Snapshot struct {
	cfg     Config
	epoch   uint64
	entries []*Entry // in strictly increasing ID order
	d       *dust.Dust
	nextID  int // the ID the next insert will receive

	cols *Columns // the arena capture; nil until the series length is resolved

	unsampled int          // resident series without a sample model
	defErrs   []stats.Dist // the error model of a series without one, inserted or derived
}

// Epoch returns the snapshot's version number; it increases by one with
// every published mutation.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NextID returns the stable ID the next inserted series will receive, as
// of this snapshot — part of the state a checkpoint must persist so that
// recovery reassigns the same IDs the original corpus would have.
func (s *Snapshot) NextID() int { return s.nextID }

// Config returns the resolved artifact geometry.
func (s *Snapshot) Config() Config { return s.cfg }

// Len returns the number of resident series.
func (s *Snapshot) Len() int { return len(s.entries) }

// SeriesLen returns the common series length (0 while the corpus is empty
// and no length was configured).
func (s *Snapshot) SeriesLen() int { return s.cfg.Length }

// ReportedSigma returns the constant error stddev PROUD receives.
func (s *Snapshot) ReportedSigma() float64 { return s.cfg.ReportedSigma }

// Entry returns the entry at position i (0 <= i < Len()).
func (s *Snapshot) Entry(i int) *Entry { return s.entries[i] }

// IDAt returns the stable series ID at position i.
func (s *Snapshot) IDAt(i int) int { return s.entries[i].ID }

// PosOf resolves a stable series ID to its position in this snapshot: a
// binary search, since IDs are assigned in increasing order and neither
// deletes nor compaction reorder the survivors.
func (s *Snapshot) PosOf(id int) (int, bool) {
	return slices.BinarySearchFunc(s.entries, id, func(e *Entry, id int) int { return cmp.Compare(e.ID, id) })
}

// IDs returns the resident series IDs in position order.
func (s *Snapshot) IDs() []int {
	out := make([]int, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.ID
	}
	return out
}

// Dust returns the shared DUST evaluator. Phi tables are keyed by error
// distribution and built lazily, so the tables accumulated for resident
// series keep serving every later snapshot (and any ad-hoc query reusing
// the same error models) for free.
func (s *Snapshot) Dust() *dust.Dust { return s.d }

// Spans returns the MUNICH segment geometry every entry envelope was built
// with (nil while the series length is unresolved), computed on each call.
func (s *Snapshot) Spans() [][2]int {
	if s.cfg.Length == 0 {
		return nil
	}
	return munich.SegmentSpans(s.cfg.Length, s.cfg.Segments)
}

// Columns returns the snapshot's dense columnar arena view: row i of every
// matrix holds the artifacts of the entry at position i, so a scan in
// position order reads contiguous memory. It is available exactly when the
// snapshot is dense — no deleted rows awaiting compaction — which is the
// steady state (inserts preserve density, deletes break it until the
// corpus compacts). ok=false means rows and positions differ: readers use
// Arena, or the per-entry views, which alias the same storage row by row.
func (s *Snapshot) Columns() (*Columns, bool) {
	if s.cols == nil || s.cols.Rows != nil {
		return nil, false
	}
	return s.cols, true
}

// Arena returns the arena capture every snapshot with resolved geometry
// carries, dense or not: the artifacts of the entry at position i are row
// Rows[i] of every matrix, or row i when Rows is nil (the snapshot is
// dense). Rows no position maps to belong to deleted series awaiting
// compaction.
func (s *Snapshot) Arena() *Columns { return s.cols }

// Index builds a bucket tree over the snapshot's sketch column, one member
// per resident series at its arena row (dense or not: rows of deleted series
// are left out), with the default leaf capacity. Each call builds afresh;
// nil while the corpus is empty and no length was configured. No query walks
// it — the engine reads the sketch rows themselves (Arena().Sketch) — and
// the benchmark's layer probe is what calls it.
func (s *Snapshot) Index() *sketch.Tree {
	if s.cols == nil {
		return nil
	}
	members := make([]sketch.Member, len(s.entries))
	for i, e := range s.entries {
		members[i] = sketch.Member{ID: e.ID, Row: e.row}
	}
	return sketch.Build(sketch.NewLayout(s.cfg.Length, sketch.DefaultSegments), sketch.DefaultLeafCap, members, s.cols.Sketch)
}

// Derive computes every artifact of a series that is not resident — an
// ad-hoc query — exactly as an insert into this snapshot's corpus would: the
// same build, under the snapshot's resolved Config and default error model,
// into a fresh one-row arena set. It returns the series' entry (ID -1) and the
// capture of that arena set, whose row 0 holds its artifacts; the corpus is
// not touched. It fails wherever the insert would, with the same error.
func (s *Snapshot) Derive(x Series) (*Entry, *Columns, error) {
	if s.cfg.Length == 0 {
		return nil, nil, errors.New("corpus: no series length resolved to derive a series for")
	}
	a := newArenas(s.cfg.Length, 1)
	built, err := a.build(1, func(int) (int, Series, error) { return -1, x, nil }, s.cfg, s.defErrs)
	if err != nil {
		return nil, nil, err
	}
	return built[0], a.capture(), nil
}

// HasSamples reports whether every resident series carries the
// repeated-observation model (the precondition for serving MUNICH).
func (s *Snapshot) HasSamples() bool { return len(s.entries) > 0 && s.unsampled == 0 }

// PDFSeries returns the PDF-model views in position order (sharing the
// snapshot's immutable storage).
func (s *Snapshot) PDFSeries() []uncertain.PDFSeries {
	out := make([]uncertain.PDFSeries, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.PDF
	}
	return out
}

// SampleSeries returns the sample-model views in position order, or nil if
// any resident series lacks samples.
func (s *Snapshot) SampleSeries() []uncertain.SampleSeries {
	if !s.HasSamples() {
		return nil
	}
	out := make([]uncertain.SampleSeries, len(s.entries))
	for i, e := range s.entries {
		out[i] = *e.Samples
	}
	return out
}
