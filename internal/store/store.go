// Package store makes a corpus durable: an append-only, checksummed
// write-ahead log of corpus mutations, periodic checkpoint snapshots, and
// a recovery path that reconstructs the exact pre-crash corpus.
//
// The design leans on two properties of the corpus layer:
//
//   - Mutations are deterministic given their record. The corpus assigns
//     stable IDs and epochs sequentially, so a logged mutation carrying
//     its first assigned ID and epoch replays bit-identically — recovery
//     needs no undo information and no index state.
//
//   - Derived artifacts are functions of raw series. Checkpoints persist
//     only ingestion records (observations, error models, samples);
//     LB_Keogh envelopes, filtered vectors, filter columns, energies and
//     DUST phi tables are rebuilt through the same incremental-maintenance
//     code inserts use. Files stay compact and recovery stays exact. The
//     WAL record decoder takes arbitrary bytes without panicking, and what
//     it accepts re-encodes to the same mutation (FuzzDecodeMutation).
//
// Write-ahead ordering is enforced by the corpus hook: every mutation is
// encoded, appended and (under the "always" fsync policy) forced to disk
// before its snapshot publishes — a mutation is acknowledged to a client
// only after the log accepted it. Recovery loads the newest valid
// checkpoint, replays the WAL records past its epoch, and truncates a
// torn tail record left by a crash mid-append. Checkpoints rotate the log
// first and serialize a barrier snapshot second, so every record in the
// finished segments is covered by the checkpoint and the segments can be
// compacted away.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"uncertts/internal/corpus"
)

// Sentinel errors of the store surface.
var (
	// ErrClosed marks an operation on a closed store; mutations against
	// the corpus of a closed store are rejected (and therefore not lost).
	ErrClosed = errors.New("store: closed")
	// ErrReadOnly marks a mutation against a corpus opened read-only.
	ErrReadOnly = errors.New("store: read-only")
)

// SyncPolicy selects when WAL appends are forced to disk.
type SyncPolicy int

const (
	// SyncInterval batches fsyncs on a timer (default 100ms): a process
	// crash loses nothing (records are in the OS page cache), an OS crash
	// can lose up to one interval of acknowledged mutations. The
	// throughput choice.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every record before the mutation is acknowledged:
	// no acknowledged mutation survives in memory only. The durability
	// choice.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy resolves a policy name ("always", "interval").
func ParseSyncPolicy(name string) (SyncPolicy, error) {
	switch strings.ToLower(name) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always or interval)", name)
	}
}

// Options configures a Store.
type Options struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the fsync period of SyncInterval (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the WAL to a fresh segment once the current one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// CheckpointBytes triggers a background checkpoint once this many WAL
	// bytes accumulate past the last checkpoint (default 8 MiB; negative
	// disables automatic checkpoints).
	CheckpointBytes int64
	// ReadOnly recovers the corpus without touching the directory: no
	// torn-tail truncation, no new segment, and every further mutation is
	// rejected with ErrReadOnly.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// Store is the durability engine behind one corpus. All methods are safe
// for concurrent use, and the corpus it returns may be mutated and queried
// concurrently as usual — appends ride the corpus write lock, checkpoints
// serialize a barrier snapshot without blocking readers.
type Store struct {
	dir  string
	opts Options
	c    *corpus.Corpus

	mu            sync.Mutex // guards the writer and counters below
	w             *walWriter
	closed        bool
	failed        error // first log write/sync failure; latches the store
	walBytes      int64 // bytes appended (or replayed past the checkpoint)
	ckptMark      int64 // walBytes at the last completed checkpoint
	lastCkptEpoch uint64
	ckptPending   bool
	lastErr       error // last background sync/checkpoint failure

	ckptMu sync.Mutex // serializes checkpoint writers

	stopCh chan struct{}
	ckptCh chan struct{}
	wg     sync.WaitGroup
}

// Open opens (or creates) the durable corpus at dir and recovers its
// state: the newest valid checkpoint is loaded, the WAL records past its
// epoch are replayed through the corpus' own mutation path, a torn tail
// record is truncated, and a fresh WAL segment is started for new
// mutations. cfg is consulted only when the directory holds no usable
// checkpoint (a brand-new store, or one whose every checkpoint is
// damaged); otherwise the persisted configuration wins. The returned
// store is already wired: every mutation of Corpus() is logged with
// write-ahead ordering.
func Open(dir string, cfg corpus.Config, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		removeTempFiles(dir)
	}

	st, haveCkpt, err := loadNewestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var c *corpus.Corpus
	if haveCkpt {
		c, err = corpus.Restore(st.cfg, st.series, st.nextID, st.epoch)
	} else {
		c, err = corpus.Restore(cfg, nil, 0, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("store: restoring checkpoint: %w", err)
	}

	payloads, maxSeq, err := recoverWAL(dir, !opts.ReadOnly)
	if err != nil {
		return nil, err
	}
	var replayedBytes int64
	for _, p := range payloads {
		m, err := decodeMutation(p)
		if err != nil {
			return nil, fmt.Errorf("store: replaying WAL: %w", err)
		}
		if m.Epoch <= c.Snapshot().Epoch() {
			continue // covered by the checkpoint
		}
		if err := c.Replay(m); err != nil {
			return nil, fmt.Errorf("store: replaying WAL: %w", err)
		}
		replayedBytes += int64(recHeaderLen + len(p))
	}

	s := &Store{
		dir:           dir,
		opts:          opts,
		c:             c,
		walBytes:      replayedBytes,
		lastCkptEpoch: st.epoch,
		stopCh:        make(chan struct{}),
		ckptCh:        make(chan struct{}, 1),
	}
	if opts.ReadOnly {
		s.closed = true
		c.SetHook(func(corpus.Mutation) error { return ErrReadOnly })
		return s, nil
	}

	if !haveCkpt {
		// Persist the founding configuration immediately so a reopen never
		// depends on the caller passing the same cfg again.
		if err := writeCheckpoint(dir, c.BarrierSnapshot()); err != nil {
			return nil, err
		}
		s.lastCkptEpoch = c.Snapshot().Epoch()
		s.walBytes = 0
	}

	w, err := openWalWriter(dir, maxSeq+1, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	s.w = w
	c.SetHook(s.append)

	s.wg.Add(1)
	go s.background()
	return s, nil
}

// Corpus returns the recovered, persistence-wired corpus.
func (s *Store) Corpus() *corpus.Corpus { return s.c }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// append is the corpus hook: it runs under the corpus write lock, before
// the mutation's snapshot publishes. An error here aborts the mutation.
func (s *Store) append(m corpus.Mutation) error {
	payload, err := encodeMutation(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return fmt.Errorf("store: log failed earlier, mutations disabled until the store is reopened: %w", s.failed)
	}
	// A failed write or fsync latches the store: the segment tail may now
	// hold a torn or never-acknowledged record, and accepting further
	// appends behind it would let recovery resurrect rejected data or stop
	// short of acknowledged records. Reopening truncates the bad tail.
	if err := s.w.append(payload); err != nil {
		s.failed = err
		return err
	}
	if s.opts.Sync == SyncAlways {
		start := time.Now()
		if err := s.w.sync(); err != nil {
			s.failed = err
			return err
		}
		fsyncDuration.Observe(time.Since(start).Seconds())
	}
	s.walBytes += int64(recHeaderLen + len(payload))
	walAppendedBytes.Add(int64(recHeaderLen + len(payload)))
	walPendingBytes.Set(float64(s.walBytes - s.ckptMark))
	if s.opts.CheckpointBytes > 0 && s.walBytes-s.ckptMark > s.opts.CheckpointBytes && !s.ckptPending {
		s.ckptPending = true
		select {
		case s.ckptCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// background runs the interval fsync and the automatic checkpoints.
func (s *Store) background() {
	defer s.wg.Done()
	var tick *time.Ticker
	var tickCh <-chan time.Time
	if s.opts.Sync == SyncInterval {
		tick = time.NewTicker(s.opts.SyncEvery)
		tickCh = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-s.stopCh:
			return
		case <-tickCh:
			if err := s.Sync(); err != nil && !errors.Is(err, ErrClosed) {
				s.setErr(err)
			}
		case <-s.ckptCh:
			err := s.Checkpoint()
			s.mu.Lock()
			s.ckptPending = false
			s.mu.Unlock()
			if err != nil && !errors.Is(err, ErrClosed) {
				s.setErr(err)
			}
		}
	}
}

func (s *Store) setErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// Sync forces every appended record to disk. A failure latches the store
// (see append): after a refused fsync the durability of the tail is
// unknowable, so no further mutations are acknowledged.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	start := time.Now()
	if err := s.w.sync(); err != nil {
		s.failed = err
		return err
	}
	fsyncDuration.Observe(time.Since(start).Seconds())
	return nil
}

// Checkpoint durably serializes the current corpus state and compacts the
// WAL: the log rotates to a fresh segment, a barrier snapshot (guaranteed
// to cover every record in the finished segments) is written as a
// checkpoint file, and the finished segments plus superseded checkpoint
// files are deleted. Safe to call at any time, including concurrently
// with mutations and queries.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	ckptStart := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.failed != nil {
		// The segment tail may be torn; rotating and compacting could
		// discard the evidence recovery needs to truncate it correctly.
		err := s.failed
		s.mu.Unlock()
		return fmt.Errorf("store: log failed, checkpoint refused (reopen to recover): %w", err)
	}
	// Finish the current segment so that everything logged so far sits in
	// segments older than the one new appends go to. The barrier snapshot
	// below is taken after the rotation: any mutation whose record landed
	// in a finished segment has published by then, so the snapshot covers
	// it and the finished segments become garbage.
	if err := s.w.rotate(); err != nil {
		s.mu.Unlock()
		return err
	}
	doneSeq := s.w.seq // segments strictly below this are compactable
	mark := s.walBytes
	s.mu.Unlock()

	snap := s.c.BarrierSnapshot()
	if err := writeCheckpoint(s.dir, snap); err != nil {
		return err
	}

	s.mu.Lock()
	if mark > s.ckptMark {
		s.ckptMark = mark
	}
	s.lastCkptEpoch = snap.Epoch()
	walPendingBytes.Set(float64(s.walBytes - s.ckptMark))
	s.mu.Unlock()

	if err := s.compact(doneSeq, snap.Epoch()); err != nil {
		return err
	}
	checkpointDuration.Observe(time.Since(ckptStart).Seconds())
	return nil
}

// compact deletes WAL segments older than the latest checkpoint's
// rotation point and checkpoint files older than the latest checkpoint.
// Failures are reported but recovery never depends on compaction having
// run: stale files are simply re-ignored (segments replay as no-ops below
// the checkpoint epoch, old checkpoints lose to newer ones).
func (s *Store) compact(doneSeq uint64, epoch uint64) error {
	seqs, err := listSegments(s.dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq < doneSeq {
			if err := os.Remove(filepath.Join(s.dir, segmentName(seq))); err != nil {
				return err
			}
		}
	}
	epochs, err := listCheckpoints(s.dir)
	if err != nil {
		return err
	}
	for _, e := range epochs {
		if e < epoch {
			if err := os.Remove(filepath.Join(s.dir, checkpointName(e))); err != nil {
				return err
			}
		}
	}
	return syncDir(s.dir)
}

// Close flushes and fsyncs the WAL and stops the background work. The
// corpus stays queryable, but every further mutation is rejected with
// ErrClosed (and therefore cannot be silently lost). Close does not write
// a checkpoint; callers wanting one (e.g. a graceful shutdown) call
// Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	close(s.stopCh)
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.w.close()
}

// Status is a point-in-time report of the store's health, served by the
// HTTP /healthz endpoint.
type Status struct {
	// Dir is the store directory.
	Dir string `json:"dir"`
	// Open reports whether the store accepts mutations.
	Open bool `json:"open"`
	// ReadOnly reports a read-only recovery.
	ReadOnly bool `json:"read_only,omitempty"`
	// Epoch is the current corpus epoch.
	Epoch uint64 `json:"epoch"`
	// Series is the resident series count.
	Series int `json:"series"`
	// LastCheckpointEpoch is the epoch of the newest durable checkpoint.
	LastCheckpointEpoch uint64 `json:"last_checkpoint_epoch"`
	// WALBytesSinceCheckpoint is the log volume a recovery would replay.
	WALBytesSinceCheckpoint int64 `json:"wal_bytes_since_checkpoint"`
	// Segments is the number of WAL segment files on disk.
	Segments int `json:"segments"`
	// LastError is the most recent background sync/checkpoint failure.
	LastError string `json:"last_error,omitempty"`
}

// Status reports the store's current state.
func (s *Store) Status() Status {
	snap := s.c.Snapshot()
	s.mu.Lock()
	st := Status{
		Dir:                     s.dir,
		Open:                    !s.closed && s.failed == nil,
		ReadOnly:                s.opts.ReadOnly,
		Epoch:                   snap.Epoch(),
		Series:                  snap.Len(),
		LastCheckpointEpoch:     s.lastCkptEpoch,
		WALBytesSinceCheckpoint: s.walBytes - s.ckptMark,
	}
	switch {
	case s.failed != nil:
		st.LastError = s.failed.Error()
	case s.lastErr != nil:
		st.LastError = s.lastErr.Error()
	}
	s.mu.Unlock()
	if seqs, err := listSegments(s.dir); err == nil {
		st.Segments = len(seqs)
	}
	return st
}

// removeTempFiles clears checkpoint temp files left by a crash
// mid-checkpoint.
func removeTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
