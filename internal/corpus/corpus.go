// Package corpus is the mutable data layer of the system: a long-lived
// collection of uncertain time series that can be grown (Insert) and
// shrunk (Delete) while queries run, decoupling data ownership from the
// batch-oriented evaluation Workload.
//
// Two ideas carry the package:
//
//   - Incremental index maintenance. Every similarity measure the engine
//     serves leans on per-series derived artifacts — LB_Keogh envelopes for
//     banded DTW, UMA/UEMA filtered vectors, PROUD suffix energies, MUNICH
//     segment envelopes, DUST phi lookup tables. All of them are functions
//     of one series at a time (the phi tables of the shared evaluator are
//     keyed by error distribution and built lazily), so an insert computes
//     exactly the new series' artifacts and a delete drops exactly the
//     removed ones. Nothing is ever rebuilt collection-wide.
//
//   - Snapshot isolation. The corpus publishes its state as an immutable
//     Snapshot under an atomic pointer (copy-on-write: writers copy the
//     entry slice, never an entry). Readers grab the pointer once and see a
//     frozen, consistent collection for as long as they hold it — queries
//     racing with writers are never blocked and never observe a partial
//     mutation. Each snapshot carries a monotonically increasing epoch so
//     callers can cheaply detect staleness (the HTTP server keys its
//     per-measure engine cache on it).
package corpus

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"uncertts/internal/distance"
	"uncertts/internal/dust"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/sketch"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/uncertain"
)

// Config fixes the artifact geometry of a corpus. Every derived artifact is
// parameterised (envelope band, filter window, segment count, ...); pinning
// the parameters at corpus construction is what lets inserts maintain the
// artifacts incrementally and lets engines reuse them without recomputing.
type Config struct {
	// Length is the common series length. Zero adopts the length of the
	// first inserted series.
	Length int
	// ReportedSigma is the constant error stddev handed to PROUD and used
	// as the default error model for series inserted without Errors. Zero
	// derives the root-mean-variance of the first inserted series' errors.
	ReportedSigma float64
	// Sigmas optionally fixes the per-timestamp error stddevs used to
	// filter series inserted without their own Errors (UMA/UEMA). Nil
	// falls back to a constant ReportedSigma per timestamp.
	Sigmas []float64
	// Errors optionally fixes the default per-timestamp error
	// distributions attached to series inserted without Errors. Nil falls
	// back to Normal(0, ReportedSigma).
	Errors []stats.Dist
	// Band is the Sakoe-Chiba half-width the LB_Keogh envelopes are built
	// for. Zero derives max(1, Length/10); negative means unconstrained.
	Band int
	// Segments is the MUNICH envelope segment count (0 = 16, clamped to
	// the series length).
	Segments int
	// W is the UMA/UEMA filter window half-width (0 = the paper's 2).
	W int
	// Lambda is the UEMA decay (0 = the paper's 1).
	Lambda float64
	// Mode selects the Eq. 17/18 weight normalisation for UMA/UEMA.
	Mode timeseries.WeightMode
	// DUST configures the shared phi-table evaluator.
	DUST dust.Options

	// SketchSegments is the PAA segment count of the sketch index rows
	// (0 = sketch.DefaultSegments, clamped to the series length), and
	// SketchLeafCap the bucket-tree leaf capacity (0 = sketch.DefaultLeafCap).
	// Both are tuning knobs only — query results are bit-identical for every
	// setting (the index is a sound prefilter) — and are deliberately NOT
	// persisted by checkpoints: a restored corpus adopts the defaults, which
	// changes nothing but bucket shapes.
	SketchSegments int
	SketchLeafCap  int
}

// withDefaults resolves the zero values that do not need the series length.
func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 2
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Segments <= 0 {
		c.Segments = 16
	}
	if c.SketchSegments <= 0 {
		c.SketchSegments = sketch.DefaultSegments
	}
	if c.SketchLeafCap <= 0 {
		c.SketchLeafCap = sketch.DefaultLeafCap
	}
	return c
}

// resolveLength resolves the length-dependent defaults once the series
// length is known.
func (c Config) resolveLength(n int) Config {
	c.Length = n
	if c.Band == 0 {
		c.Band = n / 10
		if c.Band < 1 {
			c.Band = 1
		}
	}
	c.Segments = munich.ClampSegments(n, c.Segments)
	c.SketchSegments = munich.ClampSegments(n, c.SketchSegments)
	return c
}

// Series is the unit of ingestion: an observation vector plus optional
// uncertainty metadata.
type Series struct {
	// Values holds the observed value per timestamp.
	Values []float64
	// Errors optionally attaches per-timestamp reported error
	// distributions. Nil uses the corpus defaults.
	Errors []stats.Dist
	// Samples optionally attaches the repeated-observation model
	// (Samples[i][j] is the j-th observation at timestamp i); required for
	// the series to be servable by MUNICH.
	Samples [][]float64
	// Label carries an optional class label.
	Label int
}

// Mutation is one atomic corpus change as seen by a persistence hook: the
// ingestion records exactly as submitted, the IDs of the deleted series,
// and the deterministic outcome of the mutation — the first stable ID
// assigned to the inserted series (they receive FirstID, FirstID+1, ...)
// and the epoch of the snapshot the mutation publishes. Logging a Mutation
// is enough to replay it bit-identically: Replay forces the same ID
// assignment and epoch.
type Mutation struct {
	// Insert holds the ingestion records in input order, exactly as
	// submitted (Errors nil when the series adopted the corpus defaults).
	Insert []Series
	// IDs, when non-empty, holds the caller-assigned stable ID of each
	// inserted series (an ApplyAt mutation); empty means the contiguous
	// assignment FirstID, FirstID+1, ...
	IDs []int
	// Delete holds the removed stable IDs.
	Delete []int
	// FirstID is the corpus' next unassigned ID at mutation time; for a
	// contiguous mutation it is the stable ID assigned to Insert[0].
	FirstID int
	// Epoch is the epoch of the snapshot this mutation publishes.
	Epoch uint64
}

// Hook observes every mutation before its snapshot is published — the
// write-ahead ordering a durable log needs. It runs under the corpus write
// lock, after the mutation validated but before anything is visible to
// readers; returning an error aborts the whole mutation (no IDs are
// consumed, no snapshot is published), so a mutation is acknowledged only
// once its hook accepted it.
type Hook func(Mutation) error

// Entry is one resident series with every derived artifact the query
// engines consume. Entries are immutable after insertion: a snapshot shares
// them freely across epochs, and readers may hold them indefinitely.
type Entry struct {
	// ID is the stable corpus handle (unique for the corpus lifetime,
	// never reused).
	ID int
	// PDF is the observation-plus-error-model view (PROUD/DUST input);
	// PDF.ID equals ID.
	PDF uncertain.PDFSeries
	// Samples is the repeated-observation view (MUNICH input), nil when
	// the series was inserted without samples.
	Samples *uncertain.SampleSeries
	// Sigmas caches the per-timestamp error stddevs of PDF.Errors.
	Sigmas []float64
	// Upper and Lower are the LB_Keogh envelopes for the corpus band.
	Upper, Lower []float64
	// Env is the MUNICH segment envelope (zero value when Samples is nil).
	Env munich.Envelope
	// OwnErrors records whether the series was inserted with its own error
	// distributions (as opposed to adopting the corpus defaults) — the
	// fidelity bit a checkpoint needs to re-ingest the entry through the
	// exact same code path.
	OwnErrors bool

	// row is the entry's row index in the corpus arenas at the time it was
	// built (or last compacted, or last regrown). All float64 artifacts above
	// are views into arena row `row`, which also holds the artifacts only
	// scans read (filtered vectors, suffix energies, sketch row, filter
	// columns — see Snapshot.Arena); compaction and arena growth rewire fresh
	// Entry copies to the new storage.
	row int
}

// Corpus is the mutable collection. All methods are safe for concurrent
// use; writers serialise on an internal mutex while readers only touch the
// atomic snapshot pointer.
type Corpus struct {
	mu     sync.Mutex
	cur    atomic.Pointer[Snapshot]
	nextID int
	d      *dust.Dust
	hook   Hook
	// ar holds the columnar arenas backing every resident entry's float64
	// artifacts. Nil until the series length is resolved (the first insert,
	// for corpora configured without a Length). Guarded by mu.
	ar *arenas
	// tree is the current version of the persistent bucket-tree sketch
	// index over ar's sketch rows; it is maintained incrementally with every
	// mutation and published (immutably) with every snapshot. Nil exactly
	// when ar is nil. Guarded by mu.
	tree *sketch.Tree
	// regrown records that growth moved the arenas to new backing arrays
	// since the published entries were last pointed at them; the next
	// mutation to publish rewires the survivors (an aborted one leaves the
	// flag for its successor). Guarded by mu.
	regrown bool
	// defErrs is the one error model every series inserted without Errors
	// shares (see defaultErrors); nil until the geometry it needs is
	// resolved. Guarded by mu.
	defErrs []stats.Dist
}

// New returns an empty corpus with the given artifact geometry.
func New(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	c := &Corpus{d: dust.New(cfg.DUST)}
	if cfg.Length > 0 {
		cfg = cfg.resolveLength(cfg.Length)
		c.ar = newArenas(cfg, 0)
		c.tree = sketch.NewTree(c.ar.lay, cfg.SketchLeafCap)
		c.defErrs = defaultErrors(cfg)
	}
	c.cur.Store(c.newSnapshot(cfg, 0, nil))
	return c
}

// Snapshot returns the current immutable snapshot. It never blocks, not
// even while a writer is publishing.
func (c *Corpus) Snapshot() *Snapshot { return c.cur.Load() }

// BarrierSnapshot returns the current snapshot after waiting out any
// in-flight mutation: unlike Snapshot it acquires the write lock, so every
// mutation whose hook has already run has published by the time it
// returns. Checkpointers rely on it — a state serialized from a
// BarrierSnapshot is guaranteed to cover every mutation the write-ahead
// log acknowledged before the barrier.
func (c *Corpus) BarrierSnapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur.Load()
}

// SetHook installs the persistence hook observing every future mutation
// (nil removes it). The hook runs under the corpus write lock with
// write-ahead ordering: it sees the mutation before any reader can, and
// its error aborts the mutation entirely.
func (c *Corpus) SetHook(h Hook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = h
}

// Len returns the current number of resident series.
func (c *Corpus) Len() int { return c.Snapshot().Len() }

// Insert adds one series and publishes a new snapshot. It returns the
// stable ID assigned to the series.
func (c *Corpus) Insert(s Series) (int, error) {
	ids, err := c.InsertBatch([]Series{s})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InsertBatch adds several series atomically — readers observe either none
// or all of them — and returns their IDs in input order.
func (c *Corpus) InsertBatch(batch []Series) ([]int, error) {
	return c.Apply(batch, nil)
}

// Delete removes the series with the given IDs and publishes a new
// snapshot. Unknown IDs are an error; nothing is removed unless every ID
// resolves.
func (c *Corpus) Delete(ids ...int) error {
	_, err := c.Apply(nil, ids)
	return err
}

// Apply performs one atomic mutation combining insertions and deletions:
// either the whole batch lands in a single published snapshot, or nothing
// changes. It returns the IDs of the inserted series in input order.
// Deleting an unknown ID (including an ID only just inserted by the same
// call) is an error that aborts the entire mutation.
func (c *Corpus) Apply(insert []Series, deleteIDs []int) ([]int, error) {
	if len(insert) == 0 && len(deleteIDs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applyLocked(insert, nil, deleteIDs, true)
}

// ApplyAt is Apply with caller-assigned stable IDs for the inserted
// series: insertIDs[i] becomes the ID of insert[i]. The IDs must be
// strictly increasing and start at or above the corpus' next unassigned
// ID, so an ID is never reused; afterwards the corpus' next ID is one
// past the largest assigned. Cluster shards use it to ingest series
// under coordinator-assigned global IDs — position order stays ID order,
// and a shard answers queries bit-identically to the same series
// resident in a single corpus.
func (c *Corpus) ApplyAt(insert []Series, insertIDs []int, deleteIDs []int) ([]int, error) {
	if len(insert) == 0 && len(deleteIDs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applyLocked(insert, insertIDs, deleteIDs, true)
}

// Replay re-applies a logged mutation with its recorded outcome, bypassing
// the hook (the record being replayed is already durable). Replay verifies
// the recorded epoch and ID assignment against the corpus state — a
// mismatch means the log and the corpus diverged and recovery must stop.
func (c *Corpus) Replay(m Mutation) error {
	if len(m.Insert) == 0 && len(m.Delete) == 0 {
		return errors.New("corpus: replay of an empty mutation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cur.Load()
	if m.Epoch != old.epoch+1 {
		return fmt.Errorf("corpus: replay epoch %d does not follow current epoch %d", m.Epoch, old.epoch)
	}
	if len(m.Insert) > 0 && m.FirstID != c.nextID {
		return fmt.Errorf("corpus: replay would assign IDs from %d but the log recorded %d", c.nextID, m.FirstID)
	}
	_, err := c.applyLocked(m.Insert, m.IDs, m.Delete, false)
	return err
}

// applyLocked is the mutation core; callers hold c.mu. When logged is true
// the hook (if any) observes the mutation before it publishes. A non-empty
// insertIDs pins the stable ID of each inserted series (ApplyAt); nil keeps
// the contiguous assignment from c.nextID.
func (c *Corpus) applyLocked(insert []Series, insertIDs []int, deleteIDs []int, logged bool) ([]int, error) {
	old := c.cur.Load()
	cfg, defErrs := old.cfg, c.defErrs

	if len(insertIDs) > 0 {
		if len(insertIDs) != len(insert) {
			return nil, fmt.Errorf("corpus: %d explicit IDs for %d inserted series", len(insertIDs), len(insert))
		}
		prev := c.nextID - 1
		for _, id := range insertIDs {
			if id <= prev {
				return nil, fmt.Errorf("corpus: explicit IDs must be strictly increasing and at least the next unassigned ID %d (got %d after %d)", c.nextID, id, prev)
			}
			prev = id
		}
	}

	drop := make(map[int]bool, len(deleteIDs))
	for _, id := range deleteIDs {
		if _, ok := old.PosOf(id); !ok {
			return nil, fmt.Errorf("corpus: no series with ID %d", id)
		}
		drop[id] = true
	}

	if len(insert) > 0 {
		if cfg.Length == 0 {
			if len(insert[0].Values) == 0 {
				return nil, errors.New("corpus: cannot insert an empty series")
			}
			cfg = cfg.resolveLength(len(insert[0].Values))
		}
		if cfg.ReportedSigma <= 0 {
			cfg.ReportedSigma = deriveSigma(insert[0], cfg)
		}
		if c.ar == nil {
			c.ar = newArenas(cfg, len(insert))
			c.tree = sketch.NewTree(c.ar.lay, cfg.SketchLeafCap)
		} else if c.ar.grow(len(insert)) {
			c.regrown = true
		}
		if defErrs == nil {
			defErrs = defaultErrors(cfg)
		}
	}

	entries := make([]*Entry, 0, len(old.entries)+len(insert)-len(drop))
	// Dropped entries become tree deletions: their sketch rows stay resident
	// until compaction, so the tree can descend by the removed row itself.
	var delMembers []sketch.Member
	for _, e := range old.entries {
		if drop[e.ID] {
			delMembers = append(delMembers, sketch.Member{ID: e.ID, Row: e.row})
			continue
		}
		entries = append(entries, e)
	}
	// Inserts stage rows into the arenas as they build; an abort (bad
	// series, rejected hook) must roll the staged rows back so the arenas
	// stay aligned with the published entries. No snapshot has been captured
	// over the staged rows, so truncation is safe.
	committed := false
	var mark int
	if c.ar != nil {
		mark = c.ar.rows()
		defer func() {
			if !committed {
				c.ar.truncate(mark)
				if old.cols == nil {
					// The arenas took their strides from this mutation's first
					// series; the next first insert may bring another length.
					c.ar, c.tree = nil, nil
				}
			}
		}()
	}
	var ids []int
	var insMembers []sketch.Member
	for i, s := range insert {
		id := c.nextID + i
		if len(insertIDs) > 0 {
			id = insertIDs[i]
		}
		e, err := buildEntry(id, s, cfg, defErrs, c.ar)
		if err != nil {
			return nil, err
		}
		ids = append(ids, e.ID)
		insMembers = append(insMembers, sketch.Member{ID: e.ID, Row: e.row})
		entries = append(entries, e)
	}
	if logged && c.hook != nil {
		m := Mutation{Insert: insert, IDs: insertIDs, Delete: deleteIDs, FirstID: c.nextID, Epoch: old.epoch + 1}
		if err := c.hook(m); err != nil {
			return nil, fmt.Errorf("corpus: persistence hook rejected the mutation: %w", err)
		}
	}
	committed = true
	c.defErrs = defErrs
	if len(insertIDs) > 0 {
		c.nextID = insertIDs[len(insertIDs)-1] + 1
	} else {
		c.nextID += len(insert)
	}
	// Deletes leave dead rows behind; once more than a quarter of the arena
	// is dead, rebuild it densely (published snapshots keep reading the old
	// storage — compaction allocates fresh arrays and fresh Entry objects).
	if c.ar != nil {
		if dead := c.ar.rows() - len(entries); dead > 0 && dead*4 > c.ar.rows() {
			// compactLocked bulk-rebuilds the tree over the compacted rows,
			// so the incremental update is subsumed.
			entries = c.compactLocked(entries)
		} else {
			if c.regrown {
				// The arrays the survivors' views read were superseded: carry
				// them forward as copies over the new ones (the entries built
				// above already are), so that once older snapshots are
				// released nothing keeps an old generation reachable.
				cols := c.ar.capture()
				for i, e := range entries[:len(entries)-len(insert)] {
					entries[i] = rewire(e, cols, e.row)
				}
			}
			if len(insMembers) > 0 || len(delMembers) > 0 {
				c.tree = c.tree.Update(c.ar.sketch.Matrix(), insMembers, delMembers)
			}
		}
		c.regrown = false
	}
	c.cur.Store(c.newSnapshot(cfg, old.epoch+1, entries))
	return ids, nil
}

// compactLocked rebuilds the arenas with only the surviving entries' rows
// and returns fresh Entry objects whose artifact views point into the new
// storage. Old entries (still referenced by published snapshots) are left
// untouched. Callers hold c.mu.
func (c *Corpus) compactLocked(entries []*Entry) []*Entry {
	keep := make([]int, len(entries))
	for i, e := range entries {
		keep[i] = e.row
	}
	na := c.ar.compact(keep)
	cols := na.capture()
	out := make([]*Entry, len(entries))
	for i, e := range entries {
		out[i] = rewire(e, cols, i)
	}
	c.ar = na
	// Compaction rewires every member to a new row, so the tree is rebuilt
	// in bulk over the dense arena rather than patched.
	members := make([]sketch.Member, len(out))
	for i, e := range out {
		members[i] = sketch.Member{ID: e.ID, Row: i}
	}
	c.tree = sketch.Build(na.lay, c.tree.LeafCap(), members, cols.Sketch)
	return out
}

// rewire returns a fresh copy of e whose artifact views read row `row` of
// cols — how an entry follows its artifacts to new storage when the arenas
// compact or regrow. e itself, which published snapshots may still hold, is
// left untouched.
func rewire(e *Entry, cols *Columns, row int) *Entry {
	ne := *e
	ne.row = row
	ne.PDF.Observations = cols.Values.Row(row)
	ne.Sigmas = cols.Sigmas.Row(row)
	ne.Upper = cols.Upper.Row(row)
	ne.Lower = cols.Lower.Row(row)
	if ne.Samples != nil {
		ne.Env = munich.Envelope{Lo: cols.EnvLo.Row(row), Hi: cols.EnvHi.Row(row)}
	}
	return &ne
}

// RestoredSeries pairs an ingestion record with the stable ID it held — the
// unit of a checkpoint, carrying exactly what re-ingestion through
// buildEntry needs to reproduce the resident entry bit for bit.
type RestoredSeries struct {
	ID     int
	Series Series
}

// Restore rebuilds a corpus from persisted state: the resolved artifact
// geometry, the resident series (with their stable IDs) in position order,
// the next ID to assign, and the epoch to publish the restored snapshot
// at. Every derived artifact is recomputed through the same incremental
// code path inserts use, so a restored corpus answers queries
// bit-identically to the one that was checkpointed.
func Restore(cfg Config, series []RestoredSeries, nextID int, epoch uint64) (*Corpus, error) {
	cfg = cfg.withDefaults()
	if len(series) > 0 && cfg.Length == 0 {
		return nil, errors.New("corpus: restore: resident series but no resolved series length")
	}
	if nextID < 0 {
		return nil, fmt.Errorf("corpus: restore: negative next ID %d", nextID)
	}
	c := &Corpus{d: dust.New(cfg.DUST), nextID: nextID}
	if cfg.Length > 0 {
		cfg = cfg.resolveLength(cfg.Length)
		// One allocation per arena up front, sized to the checkpoint: the
		// bulk load stages every series without a growth copy, and holds no
		// headroom — the first insert after a restore pays one copy of the
		// arenas, after which Grow's doubling takes over.
		c.ar = newArenas(cfg, len(series))
		c.defErrs = defaultErrors(cfg)
	}
	entries := make([]*Entry, 0, len(series))
	prev := -1
	for _, rec := range series {
		if rec.ID < 0 || rec.ID >= nextID {
			return nil, fmt.Errorf("corpus: restore: series ID %d outside [0, %d)", rec.ID, nextID)
		}
		// Position order is ID order (Snapshot.PosOf searches on it).
		if rec.ID == prev {
			return nil, fmt.Errorf("corpus: restore: duplicate series ID %d", rec.ID)
		}
		if rec.ID < prev {
			return nil, fmt.Errorf("corpus: restore: series ID %d follows %d; resident series must be in increasing ID order", rec.ID, prev)
		}
		prev = rec.ID
		e, err := buildEntry(rec.ID, rec.Series, cfg, c.defErrs, c.ar)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if c.ar != nil {
		// The sketch rows were rebuilt row by row through buildEntry — the
		// same incremental path inserts use — so the restored index prunes
		// bit-identically; only the bucket shapes depend on load order.
		members := make([]sketch.Member, len(entries))
		for i, e := range entries {
			members[i] = sketch.Member{ID: e.ID, Row: e.row}
		}
		c.tree = sketch.Build(c.ar.lay, cfg.SketchLeafCap, members, c.ar.sketch.Matrix())
	}
	c.cur.Store(c.newSnapshot(cfg, epoch, entries))
	return c, nil
}

// newSnapshot freezes the writer's state — c.ar, c.tree, c.nextID,
// c.defErrs — over the given entries as the snapshot of the given epoch.
// Callers hold c.mu (or own a corpus nobody else can see yet).
func (c *Corpus) newSnapshot(cfg Config, epoch uint64, entries []*Entry) *Snapshot {
	snap := &Snapshot{
		cfg:     cfg,
		epoch:   epoch,
		entries: entries,
		d:       c.d,
		nextID:  c.nextID,
		tree:    c.tree,
		defErrs: c.defErrs,
	}
	for _, e := range entries {
		if e.Samples == nil {
			snap.unsampled++
		}
	}
	if cfg.Length == 0 {
		return snap
	}
	snap.spans = munich.SegmentSpans(cfg.Length, cfg.Segments)
	// Every snapshot carries the arena capture, dead rows included: they
	// stay resident until compaction, which the sketch tree relies on too.
	// Rows and entries both grow in insertion order and only deletes break
	// the alignment, so arena row == position exactly when the counts agree;
	// otherwise the row index says where each position lives.
	snap.cols = c.ar.capture()
	if c.ar.rows() != len(entries) {
		rows := make([]int32, len(entries))
		for i, e := range entries {
			rows[i] = int32(e.row)
		}
		snap.cols.Rows = rows
	}
	return snap
}

// deriveSigma mirrors the Workload derivation: the root mean variance of
// the reported error distributions, falling back to 1 when the first series
// carries no error model at all.
func deriveSigma(s Series, cfg Config) float64 {
	errs := s.Errors
	if errs == nil {
		errs = cfg.Errors
	}
	if len(errs) == 0 {
		return 1
	}
	var acc float64
	for _, d := range errs {
		acc += d.Variance()
	}
	return math.Sqrt(acc / float64(len(errs)))
}

// defaultErrors returns the error model of series inserted without their
// own: the configured per-timestamp distributions, or Normal(0,
// ReportedSigma) throughout when there are none (or too few for the series
// length to be of use). It is built once per corpus — every such entry and
// every snapshot share the one slice — and is nil until the length and the
// sigma it needs are resolved.
func defaultErrors(cfg Config) []stats.Dist {
	if cfg.Length == 0 {
		return nil
	}
	if len(cfg.Errors) >= cfg.Length {
		return cfg.Errors[:cfg.Length]
	}
	if cfg.ReportedSigma <= 0 {
		return nil
	}
	d := stats.NewNormal(0, cfg.ReportedSigma)
	out := make([]stats.Dist, cfg.Length)
	for i := range out {
		out[i] = d
	}
	return out
}

// buildEntry computes every derived artifact for one inserted series — the
// whole cost of an insert, independent of the corpus size. The float64
// artifacts are staged directly into the arenas (one new row each, computed
// in place); on error the caller rolls the staged rows back, so a failed
// build leaves no trace.
func buildEntry(id int, s Series, cfg Config, defErrs []stats.Dist, ar *arenas) (*Entry, error) {
	n := cfg.Length
	if len(s.Values) != n {
		return nil, fmt.Errorf("corpus: series has length %d, want %d (corpora require aligned series)", len(s.Values), n)
	}
	if err := uncertain.CheckFinite(s.Values, s.Samples); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	row := ar.rows()
	obs := ar.values.Append(s.Values)

	errs := s.Errors
	if errs == nil {
		// The corpus' one shared model, not a copy per series. A configured
		// default stands in for it unsliced, so that one too short for the
		// series still fails the length check below.
		errs = defErrs
		if cfg.Errors != nil {
			errs = cfg.Errors
		}
	}
	if len(errs) < n {
		return nil, fmt.Errorf("corpus: %d error distributions for a length-%d series", len(errs), n)
	}
	errs = errs[:n]
	for i, d := range errs {
		if d == nil {
			return nil, fmt.Errorf("corpus: nil error distribution at timestamp %d", i)
		}
	}

	e := &Entry{
		ID:        id,
		PDF:       uncertain.PDFSeries{Observations: obs, Errors: errs, Label: s.Label, ID: id},
		OwnErrors: s.Errors != nil,
		row:       row,
	}
	// Configured default sigmas are validated by the filters below (length
	// mismatch aborts the insert) and only then copied into the arena, so
	// the filter errors stay exactly as before the columnar refactor.
	sigmas := cfg.Sigmas
	derived := s.Errors != nil || sigmas == nil
	if derived {
		sig := ar.sigmas.AppendZero()
		for i := range sig {
			sig[i] = math.Sqrt(errs[i].Variance())
		}
		sigmas = sig
	}

	uma := ar.uma.AppendZero()
	if err := timeseries.UncertainMovingAverageInto(uma, obs, sigmas, cfg.W, cfg.Mode); err != nil {
		return nil, fmt.Errorf("corpus: UMA filter: %w", err)
	}
	uema := ar.uema.AppendZero()
	if err := timeseries.UncertainExponentialMovingAverageInto(uema, obs, sigmas, cfg.W, cfg.Lambda, cfg.Mode); err != nil {
		return nil, fmt.Errorf("corpus: UEMA filter: %w", err)
	}
	if !derived {
		sigmas = ar.sigmas.Append(sigmas)
	}
	e.Sigmas = sigmas
	e.Upper, e.Lower = ar.upper.AppendZero(), ar.lower.AppendZero()
	distance.EnvelopeIntoScratch(e.Upper, e.Lower, obs, cfg.Band, &ar.envScratch)
	suffix := ar.suffix.AppendZero()
	proud.SuffixEnergyInto(suffix, obs)

	// Every arena gets its row even when the series carries no samples, to
	// keep row indices aligned across artifacts; Env stays the zero value
	// (its absence is what gates MUNICH).
	envLo, envHi := ar.envLo.AppendZero(), ar.envHi.AppendZero()
	if s.Samples != nil {
		if len(s.Samples) != n {
			return nil, fmt.Errorf("corpus: sample model has %d timestamps, want %d", len(s.Samples), n)
		}
		ss := uncertain.SampleSeries{Samples: s.Samples, Label: s.Label, ID: id}
		if err := ss.Validate(); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		e.Samples = &ss
		e.Env = munich.Envelope{Lo: envLo, Hi: envHi}
		munich.BuildEnvelopeInto(e.Env, ss)
	}
	ar.lay.FillRow(ar.sketch.AppendZero(), obs, e.Upper, e.Lower)
	sketch.PAAInto(ar.coarseV.AppendZero(), obs, ar.coarse.Spans)
	sketch.PAAInto(ar.coarseU.AppendZero(), uma, ar.coarse.Spans)
	sketch.PAAInto(ar.coarseE.AppendZero(), uema, ar.coarse.Spans)
	ar.energy.AppendZero()[0] = suffix[0]
	return e, nil
}
