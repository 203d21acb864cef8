package corpus

import (
	"slices"
	"testing"
)

// artifactCopy deep-copies every float64 artifact view of a snapshot so a
// later comparison can prove the views never changed underneath a reader.
type artifactCopy struct {
	values, sigmas, uma, uema, upper, lower, suffix []float64
	envLo, envHi                                    []float64
}

// arenaRow resolves position i of a snapshot to its arena row.
func arenaRow(s *Snapshot, i int) (*Columns, int) {
	cols := s.Arena()
	if cols.Rows != nil {
		return cols, int(cols.Rows[i])
	}
	return cols, i
}

func copyArtifacts(s *Snapshot, i int) artifactCopy {
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	e := s.Entry(i)
	cols, row := arenaRow(s, i)
	return artifactCopy{
		values: cp(e.PDF.Observations),
		sigmas: cp(e.Sigmas),
		uma:    cp(cols.UMA.Row(row)),
		uema:   cp(cols.UEMA.Row(row)),
		upper:  cp(e.Upper),
		lower:  cp(e.Lower),
		suffix: cp(cols.Suffix.Row(row)),
		envLo:  cp(e.Env.Lo),
		envHi:  cp(e.Env.Hi),
	}
}

func checkArtifacts(t *testing.T, when string, s *Snapshot, i int, want artifactCopy) {
	t.Helper()
	e := s.Entry(i)
	cols, row := arenaRow(s, i)
	eq := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: entry %d: %s length changed %d -> %d", when, e.ID, name, len(want), len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d: %s[%d] changed %v -> %v", when, e.ID, name, i, want[i], got[i])
			}
		}
	}
	eq("values", e.PDF.Observations, want.values)
	eq("sigmas", e.Sigmas, want.sigmas)
	eq("uma", cols.UMA.Row(row), want.uma)
	eq("uema", cols.UEMA.Row(row), want.uema)
	eq("upper", e.Upper, want.upper)
	eq("lower", e.Lower, want.lower)
	eq("suffix", cols.Suffix.Row(row), want.suffix)
	eq("envLo", e.Env.Lo, want.envLo)
	eq("envHi", e.Env.Hi, want.envHi)
}

// TestSnapshotViewsSurviveMutation is the arena aliasing guarantee: a
// snapshot's per-entry artifact views are subslices of the corpus' shared
// arenas, yet no later mutation — appends that grow the arenas, deletes,
// or the compaction they trigger — may ever change what a held snapshot
// reads through them.
func TestSnapshotViewsSurviveMutation(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5, Segments: 4})
	ids, err := c.InsertBatch([]Series{
		testSeries(24, 3, 0.1), testSeries(24, 3, 0.7),
		testSeries(24, 3, 1.3), testSeries(24, 3, 2.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := c.Snapshot()
	if _, ok := s1.Columns(); !ok {
		t.Fatal("insert-only snapshot is not dense")
	}
	want1 := make([]artifactCopy, s1.Len())
	for i := range want1 {
		want1[i] = copyArtifacts(s1, i)
	}

	// Appends beyond the captured row count: the arena may grow (and
	// reallocate its backing array) many times over.
	for i := 0; i < 64; i++ {
		if _, err := c.Insert(testSeries(24, 3, 10+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want1 {
		checkArtifacts(t, "after growth", s1, i, want1[i])
	}
	if cols, ok := s1.Columns(); !ok {
		t.Fatal("snapshot lost its columns")
	} else if cols.Values.Rows() != s1.Len() {
		t.Fatalf("snapshot columns expose %d rows, want %d", cols.Values.Rows(), s1.Len())
	}

	s2 := c.Snapshot()
	want2 := make([]artifactCopy, s2.Len())
	for i := range want2 {
		want2[i] = copyArtifacts(s2, i)
	}

	// Delete well past the compaction threshold (dead > 25% of rows): the
	// corpus compacts into fresh storage, and both held snapshots must
	// keep reading their original bytes.
	if err := c.Delete(ids...); err != nil {
		t.Fatal(err)
	}
	snapIDs := c.Snapshot().IDs()
	if err := c.Delete(snapIDs[:len(snapIDs)/2]...); err != nil {
		t.Fatal(err)
	}
	for i := range want1 {
		checkArtifacts(t, "after compaction", s1, i, want1[i])
	}
	for i := range want2 {
		checkArtifacts(t, "after compaction", s2, i, want2[i])
	}

	// The post-compaction snapshot is dense again, and its rebuilt rows
	// carry the same artifacts the surviving entries had before.
	s3 := c.Snapshot()
	cols, ok := s3.Columns()
	if !ok {
		t.Fatal("post-compaction snapshot is not dense")
	}
	if cols.Values.Rows() != s3.Len() {
		t.Fatalf("compacted columns hold %d rows, want %d", cols.Values.Rows(), s3.Len())
	}
	for i := 0; i < s3.Len(); i++ {
		e := s3.Entry(i)
		pos, ok := s2.PosOf(e.ID)
		if !ok {
			t.Fatalf("compacted entry %d not in pre-delete snapshot", e.ID)
		}
		checkArtifacts(t, "compacted rows", s3, i, want2[pos])
		if &e.PDF.Observations[0] != &cols.Values.Row(i)[0] {
			t.Fatalf("compacted entry %d does not alias its column row", e.ID)
		}
	}

	// Inserting after compaction appends into the fresh arena without
	// disturbing any of the above.
	if _, err := c.Insert(testSeries(24, 3, 99)); err != nil {
		t.Fatal(err)
	}
	for i := range want1 {
		checkArtifacts(t, "after post-compaction insert", s1, i, want1[i])
	}
	for i := 0; i < s3.Len(); i++ {
		pos, _ := s2.PosOf(s3.Entry(i).ID)
		checkArtifacts(t, "after post-compaction insert", s3, i, want2[pos])
	}
}

// TestFailedInsertRollsBackArena proves a rejected mutation leaves no
// half-written rows behind: the staged arena rows are truncated and the
// next successful insert reuses them.
func TestFailedInsertRollsBackArena(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5})
	if _, err := c.Insert(testSeries(16, 0, 0.3)); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	// A length-mismatched series fails validation after arena staging began.
	if _, err := c.Insert(testSeries(9, 0, 0.5)); err == nil {
		t.Fatal("length-mismatched insert succeeded")
	}
	if _, err := c.Insert(testSeries(16, 0, 0.9)); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if after.Len() != 2 {
		t.Fatalf("Len = %d, want 2", after.Len())
	}
	cols, ok := after.Columns()
	if !ok {
		t.Fatal("snapshot not dense after rollback")
	}
	if cols.Values.Rows() != 2 {
		t.Fatalf("columns hold %d rows, want 2", cols.Values.Rows())
	}
	checkArtifacts(t, "after rollback", before, 0, copyArtifacts(after, 0))
}

// TestArenaRowIndexAfterInteriorDelete pins what engines read on a snapshot
// with dead rows: the arena capture stays available, Columns() reports not
// dense, and the row index maps every position to the arena row holding its
// entry's artifacts — with live rows on both sides of the dead one — until the
// corpus compacts and positions are rows again. HasSamples is a count kept
// at publication, so it follows the sample-less series in and out.
func TestArenaRowIndexAfterInteriorDelete(t *testing.T) {
	c := New(Config{ReportedSigma: 0.5, Segments: 4})
	batch := make([]Series, 12)
	for i := range batch {
		batch[i] = testSeries(24, 3, float64(i))
	}
	ids, err := c.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rows := c.Snapshot().Arena().Rows; rows != nil {
		t.Fatalf("dense snapshot carries a row index: %v", rows)
	}
	if err := c.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	bare, err := c.Insert(testSeries(24, 0, 99)) // no sample model
	if err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if _, dense := s.Columns(); dense {
		t.Fatal("snapshot with a dead interior row reports dense")
	}
	if s.HasSamples() {
		t.Error("HasSamples() = true with a sample-less series resident")
	}
	cols := s.Arena()
	rows := cols.Rows
	if len(rows) != s.Len() || cols.Values.Rows() != s.Len()+1 {
		t.Fatalf("Arena() = %d rows indexed by %d positions, want %d and %d", cols.Values.Rows(), len(rows), s.Len()+1, s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		want := i
		if i >= 5 {
			want = i + 1 // positions past the hole sit one row further on
		}
		if int(rows[i]) != want {
			t.Errorf("position %d maps to row %d, want %d", i, rows[i], want)
		}
		// Equal bytes, not equal addresses: growing an arena copies it, so an
		// older entry's views may live in the array the capture replaced.
		e := s.Entry(i)
		if !slices.Equal(e.PDF.Observations, cols.Values.Row(want)) || !slices.Equal(e.Upper, cols.Upper.Row(want)) {
			t.Errorf("position %d: arena row %d does not hold the entry's artifacts", i, want)
		}
	}
	if err := c.Delete(bare); err != nil {
		t.Fatal(err)
	}
	if !c.Snapshot().HasSamples() {
		t.Error("HasSamples() = false after the sample-less series was deleted")
	}
	// Past a quarter dead the corpus compacts: dense again, no index.
	if err := c.Delete(ids[0], ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	if rows := c.Snapshot().Arena().Rows; rows != nil {
		t.Errorf("compacted snapshot still carries a row index: %v", rows)
	}
}
