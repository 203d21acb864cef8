// Package corpus is the mutable data layer of the system: a long-lived
// collection of uncertain time series that can be grown (Insert) and
// shrunk (Delete) while queries run, decoupling data ownership from the
// batch-oriented evaluation Workload.
//
// Two ideas carry the package:
//
//   - Incremental artifact maintenance. Every similarity measure the engine
//     serves leans on per-series derived artifacts — LB_Keogh envelopes and
//     the sketch row for banded DTW, UMA/UEMA filtered vectors, the tier-0
//     filter columns and observation energy (which PROUD also reads),
//     MUNICH bounding intervals, DUST phi lookup tables. All of them are
//     functions of one series at a time (the phi tables of the shared
//     evaluator are keyed by error distribution and built lazily), so an
//     insert computes exactly the new series' artifacts and a delete drops
//     exactly the removed ones. Nothing is ever rebuilt collection-wide, and
//     nothing is stored that no query reads or that a query rebuilds for
//     less than it costs to store: the per-timestamp error stddevs are
//     filter input only, PROUD derives the energy of a series' unread tail
//     from its total energy as it scans, and the sketch bucket tree is built
//     on demand (Snapshot.Index).
//
//     Every ingest path (Apply and its forms, Replay, Restore) builds a
//     batch in two steps: staging appends one row per arena for each series
//     under the writer lock, in insertion order, and derivation computes
//     each series' artifacts into its own rows, in fixed chunks on every
//     core (parallel.RunShardedCtx). Derivation reads nothing another
//     series writes, so a batch derives bit-identically to the same series
//     inserted one at a time, and fails as that serial loop would. An
//     ad-hoc query derives through it too (Snapshot.Derive, into a one-row
//     arena set of its own), so the engine reads a query's artifacts as an
//     insert would have made them, not a second copy of this code.
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
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"uncertts/internal/distance"
	"uncertts/internal/dust"
	"uncertts/internal/munich"
	"uncertts/internal/parallel"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
	"uncertts/internal/sketch"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/uncertain"
)

// Config fixes the artifact geometry of a corpus. Every derived artifact is
// parameterised (envelope band, filter window, segment count, ...); pinning
// the parameters at corpus construction is what lets inserts maintain the
// artifacts incrementally and lets engines reuse them without recomputing.
// The sketch rows have no setting: every corpus summarises its series into
// sketch.DefaultSegments PAA segments (clamped to the length), the geometry
// the engine reads them with.
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
	// Upper and Lower are the LB_Keogh envelopes for the corpus band.
	Upper, Lower []float64
	// Env is the MUNICH segment envelope, the entry's own allocation like
	// Intervals (zero value when Samples is nil). No query reads it; the
	// benchmark's layer probe times the envelope bound on it.
	Env munich.Envelope
	// Intervals are the MUNICH per-timestamp bounding intervals of Samples,
	// the filter step of every MUNICH query: one allocation of 2n floats of
	// the entry's own, outside the arenas, so rewiring carries it as is
	// (zero value when Samples is nil: an unsampled corpus pays nothing).
	Intervals munich.Intervals
	// OwnErrors records whether the series was inserted with its own error
	// distributions (as opposed to adopting the corpus defaults) — the
	// fidelity bit a checkpoint needs to re-ingest the entry through the
	// exact same code path.
	OwnErrors bool

	// row is the entry's row index in the corpus arenas at the time it was
	// built (or last compacted, or last regrown). Every float64 artifact
	// above but Env and Intervals is a view into arena row `row`, which also
	// holds the artifacts only scans read (filtered vectors, sketch row,
	// filter columns, energy — see Snapshot.Arena); compaction and arena
	// growth rewire fresh Entry copies to the new storage.
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
	// regrown records that growth moved the arenas to new backing arrays
	// since the published entries were last pointed at them; the next
	// mutation to publish rewires the survivors (an aborted one leaves the
	// flag for its successor). Guarded by mu.
	regrown bool
	moved   int // bytes the locked mutation moved to new arenas; see unlock
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
		c.ar = newArenas(cfg.Length, 0)
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
// call) is an error wrapping qerr.ErrNotFound that aborts the entire
// mutation.
func (c *Corpus) Apply(insert []Series, deleteIDs []int) ([]int, error) {
	if len(insert) == 0 && len(deleteIDs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.unlock()
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
	defer c.unlock()
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
	defer c.unlock()
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
			return nil, fmt.Errorf("corpus: %w %d", qerr.ErrNotFound, id)
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
			c.ar = newArenas(cfg.Length, len(insert))
		} else if c.ar.grow(len(insert)) {
			c.regrown = true
		}
		if defErrs == nil {
			defErrs = defaultErrors(cfg)
		}
	}

	entries := make([]*Entry, 0, len(old.entries)+len(insert)-len(drop))
	for _, e := range old.entries {
		if !drop[e.ID] {
			entries = append(entries, e)
		}
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
					c.ar = nil
				}
			}
		}()
	}
	var ids []int
	if len(insert) > 0 {
		built, err := c.ar.build(len(insert), func(i int) (int, Series, error) {
			if len(insertIDs) > 0 {
				return insertIDs[i], insert[i], nil
			}
			return c.nextID + i, insert[i], nil
		}, cfg, defErrs)
		if err != nil {
			return nil, err
		}
		ids = make([]int, len(built))
		for i, e := range built {
			ids[i] = e.ID
		}
		entries = append(entries, built...)
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
			c.moved = 8 * c.ar.rows() * c.ar.width()
			entries = c.compactLocked(entries)
		} else if c.regrown {
			c.moved = 8 * mark * c.ar.width()
			// The arrays the survivors' views read were superseded: carry
			// them forward as copies over the new ones (the entries built
			// above already are), so that once older snapshots are
			// released nothing keeps an old generation reachable.
			cols := c.ar.capture()
			for i, e := range entries[:len(entries)-len(insert)] {
				entries[i] = rewire(e, cols, e.row)
			}
		}
		c.regrown = false
	}
	c.cur.Store(c.newSnapshot(cfg, old.epoch+1, entries))
	return ids, nil
}

// collectAfter: a mutation that moved more arena bytes than this (regrowth
// or compaction) runs a garbage collection once it has released the lock.
// The old generation is garbage once no snapshot reads it, but a cycle that
// overlapped the move counted it live and set the next heap goal at twice
// that: two shards of 4096 x 128 (14.5 MB each moved at the last doubling)
// peaked at ~205 MB RSS in some runs, ~160 in the rest. Moves are rare.
const collectAfter = 4 << 20

func (c *Corpus) unlock() {
	moved := c.moved
	c.moved = 0
	c.mu.Unlock()
	if moved > collectAfter {
		runtime.GC()
	}
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
	return out
}

// rewire returns a fresh copy of e whose artifact views read row `row` of
// cols — how an entry follows its artifacts to new storage when the arenas
// compact or regrow (Env and Intervals, its own allocations, come along as
// they are). e itself, which published snapshots may still hold, is left
// untouched.
func rewire(e *Entry, cols *Columns, row int) *Entry {
	ne := *e
	ne.row = row
	ne.PDF.Observations = cols.Values.Row(row)
	ne.Upper = cols.Upper.Row(row)
	ne.Lower = cols.Lower.Row(row)
	return &ne
}

// RestoredSeries pairs an ingestion record with the stable ID it held — the
// unit of a checkpoint, carrying exactly what re-ingestion through
// build needs to reproduce the resident entry bit for bit.
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
		c.ar = newArenas(cfg.Length, len(series))
		c.defErrs = defaultErrors(cfg)
	}
	var entries []*Entry
	if len(series) > 0 {
		var err error
		entries, err = c.ar.build(len(series), func(i int) (int, Series, error) {
			rec := series[i]
			if rec.ID < 0 || rec.ID >= nextID {
				return 0, Series{}, fmt.Errorf("corpus: restore: series ID %d outside [0, %d)", rec.ID, nextID)
			}
			// Position order is ID order (Snapshot.PosOf searches on it).
			if i > 0 && rec.ID == series[i-1].ID {
				return 0, Series{}, fmt.Errorf("corpus: restore: duplicate series ID %d", rec.ID)
			}
			if i > 0 && rec.ID < series[i-1].ID {
				return 0, Series{}, fmt.Errorf("corpus: restore: series ID %d follows %d; resident series must be in increasing ID order", rec.ID, series[i-1].ID)
			}
			return rec.ID, rec.Series, nil
		}, cfg, c.defErrs)
		if err != nil {
			return nil, err
		}
	}
	c.cur.Store(c.newSnapshot(cfg, epoch, entries))
	return c, nil
}

// newSnapshot freezes the writer's state — c.ar, c.nextID, c.defErrs — over
// the given entries as the snapshot of the given epoch. Callers hold c.mu
// (or own a corpus nobody else can see yet).
func (c *Corpus) newSnapshot(cfg Config, epoch uint64, entries []*Entry) *Snapshot {
	snap := &Snapshot{
		cfg:     cfg,
		epoch:   epoch,
		entries: entries,
		d:       c.d,
		nextID:  c.nextID,
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
	// Every snapshot carries the arena capture, dead rows included: they
	// stay resident until compaction. Rows and entries both grow in
	// insertion order and only deletes break the alignment, so arena row ==
	// position exactly when the counts agree; otherwise the row index says
	// where each position lives.
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
	var d stats.Dist = stats.NewNormal(0, cfg.ReportedSigma) // boxed once: no allocation per timestamp
	out := make([]stats.Dist, cfg.Length)
	for i := range out {
		out[i] = d
	}
	return out
}

// deriveChunk is how many series one claim of the ingest executor derives.
// A write of up to 32 series is one chunk, derived inline on the writer's
// goroutine; a 512-series batch is 16 chunks to share among the cores.
// BenchmarkInsertBatch reads chunks of 8 to 128 alike on two cores.
const deriveChunk = 32

// build is an insert's whole cost, independent of the corpus size, in two
// steps. Staging, under the writer lock and in insertion order, appends one
// zero row per arena for each series; at(i) gives the i-th's stable ID and
// record, or the error that stops the batch there, and a series of the
// wrong length stops it too, before it is staged (copying it into a row
// would truncate it silently). Derivation then computes every staged
// series' artifacts into its own rows — a function of the series alone — in
// fixed chunks on every core, each chunk with its own scratch. The error is
// the lowest-index failing series', as a serial loop would report it; on
// error the caller rolls the staged rows back, so a failed build leaves no
// trace.
func (a *arenas) build(count int, at func(i int) (int, Series, error), cfg Config, defErrs []stats.Dist) ([]*Entry, error) {
	first := a.rows()
	ids, recs := make([]int, 0, count), make([]Series, 0, count)
	var stop error
	for i := range count {
		id, s, err := at(i)
		if err == nil && len(s.Values) != cfg.Length {
			err = fmt.Errorf("corpus: %w", qerr.LengthMismatchf("series has length %d, want %d (corpora require aligned series)", len(s.Values), cfg.Length))
		}
		if err != nil {
			stop = err
			break
		}
		for _, b := range a.all() {
			b.AppendZero()
		}
		ids, recs = append(ids, id), append(recs, s)
	}
	entries := make([]*Entry, len(recs))
	err := parallel.RunShardedCtx(context.TODO(), len(recs), deriveChunk, 0, func(lo, hi int) error {
		sc := &deriveScratch{sigmas: make([]float64, cfg.Length)}
		for i := lo; i < hi; i++ {
			e, err := a.derive(ids[i], first+i, recs[i], cfg, defErrs, sc)
			if err != nil {
				return err
			}
			entries[i] = e
		}
		return nil
	})
	if err == nil {
		err = stop
	}
	return entries, err
}

// deriveScratch is one derivation chunk's working storage: the deque storage
// of the LB_Keogh envelope builds, and the per-timestamp error stddevs the
// UMA/UEMA filters read (length n; no query reads them, so no arena keeps
// them).
type deriveScratch struct {
	env    distance.EnvelopeScratch
	sigmas []float64
}

// derive computes every derived artifact of one staged series into its
// staged arena row `row`, which nothing else writes, and returns its entry.
// It changes no builder, so the series of a batch derive concurrently.
func (a *arenas) derive(id, row int, s Series, cfg Config, defErrs []stats.Dist, sc *deriveScratch) (*Entry, error) {
	n := cfg.Length
	if err := uncertain.CheckFinite(s.Values, s.Samples); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	obs := a.values.Row(row)
	copy(obs, s.Values)

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
	// Configured default sigmas go to the filters as they are, which
	// validate them (a length mismatch aborts the insert).
	sigmas := cfg.Sigmas
	if s.Errors != nil || sigmas == nil {
		sigmas = sc.sigmas
		for i := range sigmas {
			sigmas[i] = math.Sqrt(errs[i].Variance())
		}
	}

	uma := a.uma.Row(row)
	if err := timeseries.UncertainMovingAverageInto(uma, obs, sigmas, cfg.W, cfg.Mode); err != nil {
		return nil, fmt.Errorf("corpus: UMA filter: %w", err)
	}
	uema := a.uema.Row(row)
	if err := timeseries.UncertainExponentialMovingAverageInto(uema, obs, sigmas, cfg.W, cfg.Lambda, cfg.Mode); err != nil {
		return nil, fmt.Errorf("corpus: UEMA filter: %w", err)
	}
	e.Upper, e.Lower = a.upper.Row(row), a.lower.Row(row)
	distance.EnvelopeIntoScratch(e.Upper, e.Lower, obs, cfg.Band, &sc.env)

	// Env and Intervals stay the zero value without samples (their absence
	// is what gates MUNICH).
	if s.Samples != nil {
		if len(s.Samples) != n {
			return nil, fmt.Errorf("corpus: %w", qerr.LengthMismatchf("sample model has %d timestamps, want %d", len(s.Samples), n))
		}
		ss := uncertain.SampleSeries{Samples: s.Samples, Label: s.Label, ID: id}
		if err := ss.Validate(); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		e.Samples = &ss
		e.Env = munich.BuildEnvelope(ss, cfg.Segments)
		e.Intervals = munich.BoundingIntervals(ss)
	}
	a.lay.FillRow(a.sketch.Row(row), obs, e.Upper, e.Lower)
	sketch.PAAInto(a.coarseV.Row(row), obs, a.coarse.Spans)
	sketch.PAAInto(a.coarseU.Row(row), uma, a.coarse.Spans)
	sketch.PAAInto(a.coarseE.Row(row), uema, a.coarse.Spans)
	a.energy.Row(row)[0] = proud.Energy(obs)
	return e, nil
}
