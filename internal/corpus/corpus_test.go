package corpus

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"uncertts/internal/distance"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
)

// testSeries builds a deterministic series of length n with optional
// samples per timestamp.
func testSeries(n, samplesPerTS int, seed float64) Series {
	s := Series{Values: make([]float64, n)}
	for i := range s.Values {
		s.Values[i] = math.Sin(seed + float64(i)*0.37)
	}
	if samplesPerTS > 0 {
		s.Samples = make([][]float64, n)
		for i := range s.Samples {
			row := make([]float64, samplesPerTS)
			for j := range row {
				row[j] = s.Values[i] + 0.1*float64(j)
			}
			s.Samples[i] = row
		}
	}
	return s
}

func TestInsertDeleteEpochsAndIDs(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	if got := c.Snapshot().Epoch(); got != 0 {
		t.Fatalf("fresh corpus epoch = %d, want 0", got)
	}
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := c.Insert(testSeries(32, 0, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	snap := c.Snapshot()
	if snap.Len() != 5 || snap.Epoch() != 5 {
		t.Fatalf("Len=%d Epoch=%d, want 5/5", snap.Len(), snap.Epoch())
	}
	if !reflect.DeepEqual(snap.IDs(), ids) {
		t.Fatalf("IDs = %v, want %v", snap.IDs(), ids)
	}
	if err := c.Delete(ids[1], ids[3]); err != nil {
		t.Fatal(err)
	}
	snap2 := c.Snapshot()
	if snap2.Len() != 3 {
		t.Fatalf("Len after delete = %d, want 3", snap2.Len())
	}
	if _, ok := snap2.PosOf(ids[1]); ok {
		t.Error("deleted ID still resolves")
	}
	if pos, ok := snap2.PosOf(ids[4]); !ok || snap2.IDAt(pos) != ids[4] {
		t.Errorf("PosOf(%d) = %d,%v", ids[4], pos, ok)
	}
	// IDs are never reused.
	id, err := c.Insert(testSeries(32, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	if id <= ids[4] {
		t.Errorf("new ID %d not above all prior IDs %v", id, ids)
	}
	// The old snapshot is untouched by every mutation since.
	if snap.Len() != 5 || !reflect.DeepEqual(snap.IDs(), ids) {
		t.Error("earlier snapshot observed a mutation")
	}
}

func TestDeleteUnknownIDIsAtomic(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	id, err := c.Insert(testSeries(16, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id, 999); err == nil {
		t.Fatal("expected error for unknown ID")
	}
	if c.Len() != 1 {
		t.Error("failed delete removed a series anyway")
	}
}

func TestInsertValidation(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	if _, err := c.Insert(Series{}); err == nil {
		t.Error("empty series should error")
	}
	if _, err := c.Insert(testSeries(16, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(testSeries(17, 0, 1)); err == nil {
		t.Error("misaligned length should error")
	}
	bad := testSeries(16, 0, 2)
	bad.Errors = make([]stats.Dist, 16) // all nil
	if _, err := c.Insert(bad); err == nil {
		t.Error("nil error distribution should error")
	}
	short := testSeries(16, 0, 3)
	short.Samples = make([][]float64, 4)
	if _, err := c.Insert(short); err == nil {
		t.Error("short sample model should error")
	}
}

func TestEntryArtifactsMatchDirectComputation(t *testing.T) {
	cfg := Config{ReportedSigma: 0.4, Band: 3, Segments: 4, W: 2, Lambda: 0.9}
	c := New(cfg)
	s := testSeries(24, 3, 5)
	id, err := c.Insert(s)
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	pos, ok := snap.PosOf(id)
	if !ok {
		t.Fatal("inserted ID does not resolve")
	}
	e := snap.Entry(pos)

	up, lo := distance.Envelope(s.Values, 3)
	if !reflect.DeepEqual(e.Upper, up) || !reflect.DeepEqual(e.Lower, lo) {
		t.Error("LB_Keogh envelopes differ from direct computation")
	}
	cols, _ := snap.Columns()
	if !reflect.DeepEqual(cols.Suffix.Row(pos), proud.SuffixEnergy(s.Values)) {
		t.Error("suffix energies differ from direct computation")
	}
	sigmas := make([]float64, 24)
	for i := range sigmas {
		sigmas[i] = 0.4
	}
	uma, err := timeseries.UncertainMovingAverage(s.Values, sigmas, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols.UMA.Row(pos), uma) {
		t.Error("UMA vector differs from direct computation")
	}
	uema, err := timeseries.UncertainExponentialMovingAverage(s.Values, sigmas, 2, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols.UEMA.Row(pos), uema) {
		t.Error("UEMA vector differs from direct computation")
	}
	wantEnv := munich.BuildEnvelope(*e.Samples, 4)
	if !reflect.DeepEqual(e.Env, wantEnv) {
		t.Error("MUNICH envelope differs from direct computation")
	}
	if len(snap.Spans()) != 4 {
		t.Errorf("spans = %v, want 4 segments", snap.Spans())
	}
	if !snap.HasSamples() {
		t.Error("HasSamples() = false with a sampled series resident")
	}
}

func TestDerivedSigmaAndDefaults(t *testing.T) {
	// No sigma configured: derived from the first series' error dists.
	c := New(Config{})
	s := testSeries(8, 0, 1)
	s.Errors = make([]stats.Dist, 8)
	for i := range s.Errors {
		s.Errors[i] = stats.NewNormal(0, 0.7)
	}
	if _, err := c.Insert(s); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().ReportedSigma(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("derived sigma = %v, want 0.7", got)
	}
	cfg := c.Snapshot().Config()
	if cfg.W != 2 || cfg.Lambda != 1 || cfg.Segments != 8 || cfg.Band != 1 {
		t.Errorf("resolved config = %+v", cfg)
	}
}

func TestInsertBatchIsAtomic(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	if _, err := c.Insert(testSeries(16, 0, 0)); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	// Second series of the batch is invalid: nothing may be inserted.
	if _, err := c.InsertBatch([]Series{testSeries(16, 0, 1), testSeries(9, 0, 2)}); err == nil {
		t.Fatal("expected batch error")
	}
	if c.Snapshot().Epoch() != before.Epoch() || c.Len() != 1 {
		t.Error("failed batch mutated the corpus")
	}
	ids, err := c.InsertBatch([]Series{testSeries(16, 0, 3), testSeries(16, 0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || c.Snapshot().Epoch() != before.Epoch()+1 {
		t.Errorf("batch insert: ids=%v epoch=%d", ids, c.Snapshot().Epoch())
	}
}

func TestApplyIsAtomicAcrossInsertAndDelete(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	ids, err := c.InsertBatch([]Series{testSeries(16, 0, 0), testSeries(16, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	// Unknown delete ID: the combined mutation must change nothing, not
	// even land the (valid) insert.
	if _, err := c.Apply([]Series{testSeries(16, 0, 2)}, []int{999}); err == nil {
		t.Fatal("expected error for unknown delete ID")
	}
	if c.Snapshot().Epoch() != before.Epoch() || c.Len() != 2 {
		t.Error("failed Apply mutated the corpus")
	}
	// A valid combined mutation lands in one epoch.
	newIDs, err := c.Apply([]Series{testSeries(16, 0, 3)}, []int{ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Epoch() != before.Epoch()+1 || snap.Len() != 2 {
		t.Errorf("combined Apply: epoch %d len %d, want %d/2", snap.Epoch(), snap.Len(), before.Epoch()+1)
	}
	if _, ok := snap.PosOf(ids[0]); ok {
		t.Error("deleted ID survived the combined mutation")
	}
	if _, ok := snap.PosOf(newIDs[0]); !ok {
		t.Error("inserted ID missing after the combined mutation")
	}
}

// TestConcurrentReadersAndWriters exercises the snapshot machinery under
// -race: writers insert and delete while readers repeatedly grab snapshots
// and walk them; every snapshot must be internally consistent.
func TestConcurrentReadersAndWriters(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	seed, err := c.InsertBatch([]Series{testSeries(32, 2, 0), testSeries(32, 2, 1), testSeries(32, 2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	_ = seed
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Snapshot()
				for i := 0; i < snap.Len(); i++ {
					e := snap.Entry(i)
					if pos, ok := snap.PosOf(e.ID); !ok || pos != i {
						t.Error("inconsistent snapshot position map")
						return
					}
					if len(e.PDF.Observations) != snap.SeriesLen() {
						t.Error("inconsistent entry length")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				id, err := c.Insert(testSeries(32, 2, float64(100*w+i)))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := c.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
