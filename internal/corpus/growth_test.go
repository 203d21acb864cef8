package corpus

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"uncertts/internal/arena"
	"uncertts/internal/stats"
)

// batchOf builds k deterministic series of length n, seeded from base on.
func batchOf(k, n, samplesPerTS, base int) []Series {
	out := make([]Series, k)
	for i := range out {
		out[i] = testSeries(n, samplesPerTS, float64(base+i))
	}
	return out
}

// arenaFloats is the live size of a snapshot's arena set in float64s.
func arenaFloats(s *Snapshot) int64 {
	c := s.Arena()
	var n int64
	for _, m := range []arena.Matrix{
		c.Values, c.Sigmas, c.UMA, c.UEMA, c.Upper, c.Lower, c.Suffix, c.EnvLo, c.EnvHi, c.Sketch,
		c.CoarseV, c.CoarseU, c.CoarseE, c.Energy,
	} {
		n += int64(len(m.Data()))
	}
	return n
}

// checkViewsAliasArena fails unless every artifact view of every entry of s
// reads the snapshot's own arena capture — i.e. no entry keeps a superseded
// backing array reachable.
func checkViewsAliasArena(t *testing.T, when string, s *Snapshot) {
	t.Helper()
	for i := 0; i < s.Len(); i++ {
		e := s.Entry(i)
		cols, row := arenaRow(s, i)
		same := func(name string, view, arenaRow []float64) {
			t.Helper()
			if len(view) == 0 || &view[0] != &arenaRow[0] {
				t.Fatalf("%s: entry %d: %s does not alias row %d of the current arena", when, e.ID, name, row)
			}
		}
		same("Observations", e.PDF.Observations, cols.Values.Row(row))
		same("Sigmas", e.Sigmas, cols.Sigmas.Row(row))
		same("Upper", e.Upper, cols.Upper.Row(row))
		same("Lower", e.Lower, cols.Lower.Row(row))
		if e.Samples != nil {
			same("Env.Lo", e.Env.Lo, cols.EnvLo.Row(row))
			same("Env.Hi", e.Env.Hi, cols.EnvHi.Row(row))
		}
	}
}

// TestNoEntryPinsASupersededArena is step 2 of the write path: 16 x 512
// inserts regrow the arenas several times, and afterwards — only the current
// snapshot held — every view of every entry reads the current arrays, so the
// heap holds one arena generation, not one per regrowth. A snapshot taken
// before the growth keeps reading its own bytes throughout, under concurrent
// readers (the COW contract, for -race to referee).
func TestNoEntryPinsASupersededArena(t *testing.T) {
	const n, k = 64, 512
	c := New(Config{ReportedSigma: 0.5, Segments: 4})
	if _, err := c.InsertBatch(batchOf(k, n, 2, 0)); err != nil {
		t.Fatal(err)
	}
	s0 := c.Snapshot()
	want0 := make([]artifactCopy, s0.Len())
	for i := range want0 {
		want0[i] = copyArtifacts(s0, i)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range want0 {
					checkArtifacts(t, "during growth", s0, i, want0[i])
				}
			}
		}()
	}
	for b := 1; b < 16; b++ {
		if _, err := c.InsertBatch(batchOf(k, n, 2, b*k)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	for i := range want0 {
		checkArtifacts(t, "after growth", s0, i, want0[i])
	}
	if c.ar.copied == 0 {
		t.Fatal("16 x 512 inserts never regrew the arenas: the test exercises nothing")
	}
	checkViewsAliasArena(t, "after 16 x 512 inserts", c.Snapshot())

	// An insert that aborts after its grow reallocated leaves the published
	// entries on the old arrays; the next mutation to publish must still
	// carry them forward.
	full := c.ar.copied
	bad := batchOf(k, n, 2, 16*k)
	bad[k-1] = testSeries(n+1, 0, 0)
	if _, err := c.InsertBatch(bad); err == nil {
		t.Fatal("length-mismatched batch succeeded")
	}
	if c.ar.copied == full {
		t.Fatal("the aborted batch did not regrow a full arena: the test exercises nothing")
	}
	if _, err := c.Insert(testSeries(n, 2, -1)); err != nil {
		t.Fatal(err)
	}
	checkViewsAliasArena(t, "after an aborted regrowth", c.Snapshot())

	// And the heap agrees: with s0 dropped and the garbage collected, what
	// is live is one arena set (at most 2x its rows in capacity), the sample
	// models and the entries — not a generation per regrowth.
	live := 8 * arenaFloats(c.Snapshot())
	s0, want0 = nil, nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > uint64(4*live) {
		t.Errorf("heap holds %d MB after GC for %d MB of live arena rows, want <= 4x", ms.HeapAlloc>>20, live>>20)
	}
}

// TestGrowthCopiesAtMostTwiceTheArena is the gate on ROADMAP's
// corpus.bytes_copied_per_insert, as counts: over a 16384-series ingest in
// batches of 8, growth copies at most twice the float64s that end up
// resident (exact-size growth copied ~1000x), and a steady-state insert of 8
// copies no arena bytes and allocates the same number of objects at 16384
// resident as at 4096.
func TestGrowthCopiesAtMostTwiceTheArena(t *testing.T) {
	const n, k = 32, 8
	c := New(Config{ReportedSigma: 0.5, Segments: 4})
	next := 0
	insert8 := func() {
		if _, err := c.InsertBatch(batchOf(k, n, 0, next)); err != nil {
			t.Fatal(err)
		}
		next += k
	}
	// steady measures insert8 between two regrowths: allocations per call
	// and arena float64s copied over the measured calls.
	steady := func() (allocs float64, copied int64) {
		insert8() // crosses the power of two the ingest stopped at
		before := c.ar.copied
		allocs = testing.AllocsPerRun(20, insert8)
		return allocs, c.ar.copied - before
	}
	var allocs4k, allocs16k float64
	for next < 16384 {
		insert8()
		if next == 4096 {
			var copied int64
			if allocs4k, copied = steady(); copied != 0 {
				t.Errorf("steady-state inserts at 4096 resident copied %d arena float64s", copied)
			}
		}
	}
	allocs16k, copied := steady()
	if copied != 0 {
		t.Errorf("steady-state inserts at 16384 resident copied %d arena float64s", copied)
	}
	if allocs16k > 1.5*allocs4k {
		t.Errorf("insert-8 allocates %.0f objects at 16384 resident, %.0f at 4096: want within 1.5x", allocs16k, allocs4k)
	}
	s := c.Snapshot()
	if live := arenaFloats(s); c.ar.copied > 2*live {
		t.Errorf("growth copied %d float64s over the ingest of %d series for %d resident, want <= 2x", c.ar.copied, s.Len(), live)
	}
	t.Logf("%d series in batches of %d: growth copied %.2fx the resident arena; insert-8 allocates %.0f objects at 4096 resident, %.0f at 16384",
		s.Len(), k, float64(c.ar.copied)/float64(arenaFloats(s)), allocs4k, allocs16k)
}

// TestPosOfSearchesIDOrder pins PosOf as a search over the ID-ordered entry
// slice: hits, and misses before the first ID, after the last and inside a
// hole deletes left, on a dense snapshot and on one with sparse
// caller-assigned IDs.
func TestPosOfSearchesIDOrder(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	if _, err := c.InsertBatch(batchOf(10, 16, 0, 0)); err != nil { // IDs 0..9
		t.Fatal(err)
	}
	sparseIDs := []int{12, 15, 40, 41, 97}
	if _, err := c.ApplyAt(batchOf(len(sparseIDs), 16, 0, 50), sparseIDs, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(0, 4, 5, 41); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	resident := map[int]bool{}
	for i, id := range s.IDs() {
		resident[id] = true
		if pos, ok := s.PosOf(id); !ok || pos != i {
			t.Errorf("PosOf(%d) = %d, %v; want %d, true", id, pos, ok, i)
		}
	}
	if len(resident) != 11 {
		t.Fatalf("%d resident series, want 11", len(resident))
	}
	for id := -2; id <= 100; id++ { // before-first, holes, between sparse IDs, after-last
		if _, ok := s.PosOf(id); ok != resident[id] {
			t.Errorf("PosOf(%d) found = %v, want %v", id, ok, resident[id])
		}
	}
	if _, ok := New(Config{}).Snapshot().PosOf(0); ok {
		t.Error("PosOf(0) hit on an empty snapshot")
	}
	// The delete path resolves IDs through the same search.
	if err := c.Delete(41); err == nil {
		t.Error("deleting an already deleted ID succeeded")
	}
	if err := c.Delete(97, 1); err != nil {
		t.Error(err)
	}
}

// TestRestoreRequiresIncreasingIDs: position order is ID order, so Restore
// refuses a checkpoint that repeats an ID or lists one out of order.
func TestRestoreRequiresIncreasingIDs(t *testing.T) {
	cfg := Config{Length: 16, ReportedSigma: 0.5}
	rec := func(ids ...int) []RestoredSeries {
		out := make([]RestoredSeries, len(ids))
		for i, id := range ids {
			out[i] = RestoredSeries{ID: id, Series: testSeries(16, 0, float64(id))}
		}
		return out
	}
	for _, tc := range []struct {
		ids  []int
		want string // "" = accepted
	}{
		{[]int{0, 1, 2}, ""},
		{[]int{3, 7, 19}, ""},
		{[]int{3, 7, 7}, "duplicate series ID 7"},
		{[]int{3, 7, 5}, "increasing ID order"},
		{[]int{7, 3}, "increasing ID order"},
	} {
		c, err := Restore(cfg, rec(tc.ids...), 20, 9)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("Restore(%v): %v", tc.ids, err)
		case tc.want == "":
			for i, id := range tc.ids {
				if pos, ok := c.Snapshot().PosOf(id); !ok || pos != i {
					t.Errorf("Restore(%v): PosOf(%d) = %d, %v", tc.ids, id, pos, ok)
				}
			}
		case err == nil || !strings.Contains(err.Error(), tc.want):
			t.Errorf("Restore(%v) = %v, want an error mentioning %q", tc.ids, err, tc.want)
		}
	}
}

// TestDefaultErrorsAreShared is step 3 of the write path: series inserted
// without Errors all carry the corpus' one default model — the slice
// Snapshot.DefaultErrors returns, across growth, compaction and restore —
// while a series with its own Errors keeps its own.
func TestDefaultErrorsAreShared(t *testing.T) {
	own := testSeries(16, 0, 99)
	own.Errors = make([]stats.Dist, 16)
	for i := range own.Errors {
		own.Errors[i] = stats.NewUniform(-0.3, 0.3)
	}
	check := func(when string, s *Snapshot, ownID int) {
		t.Helper()
		def := s.DefaultErrors()
		if len(def) != 16 {
			t.Fatalf("%s: %d default error distributions, want 16", when, len(def))
		}
		for i := 0; i < s.Len(); i++ {
			e := s.Entry(i)
			switch shared := &e.PDF.Errors[0] == &def[0]; {
			case e.ID == ownID && (shared || !e.OwnErrors || &e.PDF.Errors[0] != &own.Errors[0]):
				t.Errorf("%s: the entry with its own Errors: shared=%v OwnErrors=%v", when, shared, e.OwnErrors)
			case e.ID != ownID && (!shared || e.OwnErrors || len(e.PDF.Errors) != 16):
				t.Errorf("%s: entry %d: shares the default model = %v, OwnErrors = %v", when, e.ID, shared, e.OwnErrors)
			}
		}
	}
	configured := make([]stats.Dist, 20) // longer than the series: the default is its prefix
	for i := range configured {
		configured[i] = stats.NewNormal(0, 0.4)
	}
	for name, cfg := range map[string]Config{
		"constant sigma":    {ReportedSigma: 0.5},
		"derived sigma":     {},
		"configured errors": {ReportedSigma: 0.5, Errors: configured},
	} {
		c := New(cfg)
		if d := c.Snapshot().DefaultErrors(); len(d) != 0 {
			t.Errorf("%s: %d default errors before the series length is known", name, len(d))
		}
		if _, err := c.InsertBatch(batchOf(5, 16, 0, 0)); err != nil {
			t.Fatal(err)
		}
		first := c.Snapshot().DefaultErrors()
		ownID, err := c.Insert(own)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertBatch(batchOf(64, 16, 0, 10)); err != nil { // regrows
			t.Fatal(err)
		}
		check(name+": after growth", c.Snapshot(), ownID)
		if err := c.Delete(c.Snapshot().IDs()[6:40]...); err != nil { // compacts
			t.Fatal(err)
		}
		s := c.Snapshot()
		if _, dense := s.Columns(); !dense {
			t.Fatalf("%s: the corpus did not compact", name)
		}
		check(name+": after compaction", s, ownID)
		if &s.DefaultErrors()[0] != &first[0] {
			t.Errorf("%s: the default model was rebuilt between snapshots", name)
		}

		recs := make([]RestoredSeries, s.Len())
		for i := range recs {
			e := s.Entry(i)
			recs[i] = RestoredSeries{ID: e.ID, Series: Series{Values: e.PDF.Observations}}
			if e.OwnErrors {
				recs[i].Series.Errors = e.PDF.Errors
			}
		}
		r, err := Restore(s.Config(), recs, s.NextID(), s.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		check(name+": restored", r.Snapshot(), ownID)
	}
}

// TestRejectedFirstInsertLeavesNoGeometry: a corpus configured without a
// Length shapes its arenas from the first inserted series; when that insert
// is rejected, the next one is the first again and may bring another length.
func TestRejectedFirstInsertLeavesNoGeometry(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	bad := testSeries(9, 0, 0)
	bad.Errors = make([]stats.Dist, 3)
	if _, err := c.Insert(bad); err == nil {
		t.Fatal("a series with too few error distributions was inserted")
	}
	if _, err := c.Insert(testSeries(16, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.SeriesLen() != 16 || s.Arena().Values.Stride() != 16 || len(s.DefaultErrors()) != 16 {
		t.Errorf("series length %d, arena stride %d, %d default errors; want 16 throughout",
			s.SeriesLen(), s.Arena().Values.Stride(), len(s.DefaultErrors()))
	}
}
