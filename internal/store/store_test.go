package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/engine"
	"uncertts/internal/stats"
)

// testSeries builds a deterministic series with an error model and
// repeated observations, so every measure (including MUNICH) is servable.
func testSeries(i, n, samples int) corpus.Series {
	vals := make([]float64, n)
	errs := make([]stats.Dist, n)
	var obs [][]float64
	if samples > 0 {
		obs = make([][]float64, n)
	}
	for t := 0; t < n; t++ {
		vals[t] = math.Sin(float64(t+i)/3) + 0.1*float64(i)
		errs[t] = stats.NewNormal(0, 0.4+0.01*float64((i+t)%5))
		if samples > 0 {
			row := make([]float64, samples)
			for j := range row {
				// Deterministic pseudo-observations around the value.
				row[j] = vals[t] + 0.3*math.Sin(float64(i*31+t*7+j*13))
			}
			obs[t] = row
		}
	}
	return corpus.Series{Values: vals, Errors: errs, Samples: obs, Label: i % 3}
}

func testConfig() corpus.Config {
	return corpus.Config{Length: 16, ReportedSigma: 0.4}
}

// queryFingerprint runs every measure's canonical query at several worker
// counts and returns the results; two corpora with equal fingerprints
// answer bit-identically.
func queryFingerprint(t *testing.T, snap *corpus.Snapshot) map[string]*engine.Result {
	t.Helper()
	out := make(map[string]*engine.Result)
	if snap.Len() == 0 {
		return out
	}
	qi := 0
	eps := 4.0
	for _, m := range engine.Measures() {
		if m == engine.MeasureMUNICH && !snap.HasSamples() {
			continue
		}
		e, err := engine.NewFromSnapshot(snap, engine.Options{Measure: m})
		if err != nil {
			t.Fatalf("engine %s: %v", m, err)
		}
		for _, workers := range []int{1, 2, 8} {
			req := engine.Request{Measure: m, Index: &qi, Workers: workers}
			if m.Probabilistic() {
				req.Kind, req.Eps, req.Tau = engine.KindProbRange, eps, 0.2
			} else {
				req.Kind, req.K = engine.KindTopK, min(4, snap.Len())
			}
			res, err := e.Run(context.Background(), req)
			if err != nil {
				t.Fatalf("query %s workers=%d: %v", m, workers, err)
			}
			out[m.String()+"/"+string(rune('0'+workers))] = res
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestOpenInsertReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Corpus()
	var batch []corpus.Series
	for i := 0; i < 6; i++ {
		batch = append(batch, testSeries(i, 16, 3))
	}
	ids, err := c.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ids[1], ids[4]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(testSeries(9, 16, 3)); err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(t, c.Snapshot())
	wantEpoch, wantNext := c.Snapshot().Epoch(), c.Snapshot().NextID()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, corpus.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap := s2.Corpus().Snapshot()
	if snap.Epoch() != wantEpoch || snap.NextID() != wantNext {
		t.Fatalf("recovered epoch/nextID = %d/%d, want %d/%d", snap.Epoch(), snap.NextID(), wantEpoch, wantNext)
	}
	got := queryFingerprint(t, snap)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered corpus answers differently from the original")
	}

	// The recovered corpus must keep assigning the IDs the original would
	// have.
	id, err := s2.Corpus().Insert(testSeries(11, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if id != wantNext {
		t.Fatalf("post-recovery insert got ID %d, want %d", id, wantNext)
	}
}

func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the WAL rotates during the test.
	s, err := Open(dir, testConfig(), Options{Sync: SyncAlways, SegmentBytes: 2048, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Corpus()
	for i := 0; i < 12; i++ {
		if _, err := c.Insert(testSeries(i, 16, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if seqs, _ := listSegments(dir); len(seqs) < 2 {
		t.Fatalf("expected rotated segments, got %d", len(seqs))
	}
	want := queryFingerprint(t, c.Snapshot())

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	if len(seqs) != 1 {
		t.Fatalf("checkpoint left %d WAL segments, want 1", len(seqs))
	}
	epochs, _ := listCheckpoints(dir)
	if len(epochs) != 1 || epochs[0] != c.Snapshot().Epoch() {
		t.Fatalf("checkpoints on disk = %v, want exactly [%d]", epochs, c.Snapshot().Epoch())
	}
	st := s.Status()
	if st.WALBytesSinceCheckpoint != 0 {
		t.Fatalf("WAL bytes since checkpoint = %d after checkpoint", st.WALBytesSinceCheckpoint)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, corpus.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := queryFingerprint(t, s2.Corpus().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("corpus recovered from checkpoint answers differently")
	}
}

func TestMutationAfterCloseRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Corpus()
	if _, err := c.Insert(testSeries(0, 16, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(testSeries(1, 16, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: err = %v, want ErrClosed", err)
	}
	if c.Len() != 1 {
		t.Fatalf("rejected insert still mutated the corpus (len %d)", c.Len())
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Corpus().Insert(testSeries(0, 16, 3)); err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(t, s.Corpus().Snapshot())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	ro, err := Open(dir, corpus.Config{}, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := queryFingerprint(t, ro.Corpus().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("read-only recovery answers differently")
	}
	if _, err := ro.Corpus().Insert(testSeries(1, 16, 3)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only insert: err = %v, want ErrReadOnly", err)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("read-only open changed the directory:\nbefore %v\nafter  %v", before, after)
	}
	if !ro.Status().ReadOnly {
		t.Fatal("status does not report read-only")
	}
}

// dirListing maps file name to size for every file in dir.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi.Size()
	}
	return out
}

// unpersistable is an error model of a type the codec has no tag for.
type unpersistable struct{ stats.Normal }

func TestUnsupportedDistributionAbortsMutation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.Corpus()
	bad := testSeries(0, 16, 0)
	for i := range bad.Errors {
		bad.Errors[i] = unpersistable{stats.NewNormal(0, 0.5)}
	}
	if _, err := c.Insert(bad); err == nil {
		t.Fatal("insert with an unpersistable error distribution succeeded")
	}
	if c.Len() != 0 {
		t.Fatalf("aborted mutation still landed (len %d)", c.Len())
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	mix := stats.NewMixture(
		[]stats.Dist{stats.NewNormal(0, 0.3), stats.NewUniformByStdDev(0.5)},
		[]float64{0.2, 0.8},
	)
	s := testSeries(2, 8, 4)
	s.Errors[3] = mix
	s.Errors[4] = stats.NewExponentialByStdDev(0.7)
	plain := corpus.Series{Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Label: -2}
	m := corpus.Mutation{
		Insert:  []corpus.Series{s, plain},
		Delete:  []int{7, 0, 12},
		FirstID: 42,
		Epoch:   99,
	}
	payload, err := encodeMutation(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeMutation(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, m)
	}
}

// FuzzDecodeMutation feeds the WAL record decoder arbitrary payloads, from
// seeds that are real insert, delete and sampled-insert records
// (testdata/fuzz): it must never panic, and a record it accepts must come
// back unchanged through encodeMutation and decodeMutation. Unchanged is
// reflect.DeepEqual except that NaN equals NaN (the nan-value seed): the
// codec keeps a float's bits, and DeepEqual never finds a NaN equal to
// itself. Printing with %#v keeps DeepEqual's other distinctions (nil against
// empty slices, the dynamic type of every error distribution).
func FuzzDecodeMutation(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeMutation(payload)
		if err != nil {
			return
		}
		again, err := encodeMutation(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted record: %v", err)
		}
		got, err := decodeMutation(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded record: %v", err)
		}
		if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", m); g != w {
			t.Fatalf("round trip mismatch:\ngot  %s\nwant %s", g, w)
		}
	})
}

func TestRecoveryIgnoresCheckpointTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testConfig(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Corpus().Insert(testSeries(0, 16, 3)); err != nil {
		t.Fatal(err)
	}
	want := queryFingerprint(t, s.Corpus().Snapshot())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: a stray temp file.
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, corpus.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := queryFingerprint(t, s2.Corpus().Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery with a temp file answers differently")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-123.tmp")); !os.IsNotExist(err) {
		t.Fatal("recovery left the checkpoint temp file behind")
	}
}

// encodeCheckpointV1 renders the legacy interleaved body, which the writer
// no longer emits: the tests fabricate pre-arena checkpoint files with it to
// prove the V1 reader keeps working.
func encodeCheckpointV1(snap *corpus.Snapshot) ([]byte, error) {
	var e enc
	e.u64(snap.Epoch())
	e.i64(int64(snap.NextID()))
	if err := e.config(snap.Config()); err != nil {
		return nil, err
	}
	e.u32(uint32(snap.Len()))
	for i := 0; i < snap.Len(); i++ {
		ent := snap.Entry(i)
		e.i64(int64(ent.ID))
		s := corpus.Series{Values: ent.PDF.Observations, Label: ent.PDF.Label}
		if ent.OwnErrors {
			s.Errors = ent.PDF.Errors
		}
		if ent.Samples != nil {
			s.Samples = ent.Samples.Samples
		}
		if err := e.series(s); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// TestReadsPreArenaV1Checkpoint proves backward compatibility of the
// checkpoint reader: a file in the legacy interleaved V1 format (magic
// UCKPT001, written before the columnar arena fast path existed) must
// recover into a corpus that answers every measure bit-identically.
func TestReadsPreArenaV1Checkpoint(t *testing.T) {
	c := corpus.New(testConfig())
	var batch []corpus.Series
	for i := 0; i < 5; i++ {
		batch = append(batch, testSeries(i, 16, 3))
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	want := queryFingerprint(t, snap)

	body, err := encodeCheckpointV1(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeCheckpointFile(t, dir, ckptMagicV1, snap.Epoch(), body)

	s, err := Open(dir, corpus.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Corpus().Snapshot()
	if got.Epoch() != snap.Epoch() || got.NextID() != snap.NextID() {
		t.Fatalf("V1 recovery epoch/nextID = %d/%d, want %d/%d", got.Epoch(), got.NextID(), snap.Epoch(), snap.NextID())
	}
	if fp := queryFingerprint(t, got); !reflect.DeepEqual(fp, want) {
		t.Fatal("corpus recovered from a V1 checkpoint answers differently")
	}
	// Checkpointing the recovered corpus writes the modern columnar format,
	// which must round-trip as well.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, ok, err := loadNewestCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint after upgrade: ok=%v err=%v", ok, err)
	}
	if st.epoch != snap.Epoch() || len(st.series) != snap.Len() {
		t.Fatalf("upgraded checkpoint epoch=%d series=%d, want %d/%d", st.epoch, len(st.series), snap.Epoch(), snap.Len())
	}
}
