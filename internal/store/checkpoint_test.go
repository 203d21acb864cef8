package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"uncertts/internal/corpus"
)

// writeCheckpointFile writes body under magic as dir's checkpoint for epoch,
// with a checksum that validates, however the body is damaged.
func writeCheckpointFile(t *testing.T, dir, magic string, epoch uint64, body []byte) {
	t.Helper()
	file := make([]byte, 0, len(magic)+4+len(body))
	file = append(file, magic...)
	file = binary.LittleEndian.AppendUint32(file, crc32.Checksum(body, crcTable))
	file = append(file, body...)
	if err := os.WriteFile(filepath.Join(dir, checkpointName(epoch)), file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wrappingCheckpointBody is a V2 body whose values block cannot hold its
// series: 4 series of length 1<<62 over an empty block, where the product
// 4<<62 wraps to 0.
func wrappingCheckpointBody(t testing.TB, epoch uint64) []byte {
	var e enc
	e.u64(epoch)
	e.i64(4)
	length := int64(1) << 62 // a variable: no int constant where int has 32 bits
	if err := e.config(corpus.Config{Length: int(length)}); err != nil {
		t.Fatal(err)
	}
	e.u32(4)
	e.u64(0)
	for id := 0; id < 4; id++ {
		e.i64(int64(id))
		if err := e.seriesTail(corpus.Series{}); err != nil {
			t.Fatal(err)
		}
	}
	return e.b
}

// zeroLengthCheckpointBody is a V2 body, or a V1 body, declaring two series
// of no values under series length 0: what no corpus can hold, since it
// resolves its length with its first series.
func zeroLengthCheckpointBody(t testing.TB, epoch uint64, v1 bool) []byte {
	var e enc
	e.u64(epoch)
	e.i64(2)
	if err := e.config(corpus.Config{}); err != nil {
		t.Fatal(err)
	}
	e.u32(2)
	if !v1 {
		e.u64(0)
	}
	for id := 0; id < 2; id++ {
		e.i64(int64(id))
		encode := e.seriesTail
		if v1 {
			encode = e.series
		}
		if err := encode(corpus.Series{}); err != nil {
			t.Fatal(err)
		}
	}
	return e.b
}

// TestDamagedCheckpointFallsBack: a checkpoint whose checksum validates but
// whose values block is too short for its series, or whose series have no
// length, must fail to decode, not panic, so recovery falls back to the older
// checkpoint before it.
func TestDamagedCheckpointFallsBack(t *testing.T) {
	if _, err := decodeCheckpoint(wrappingCheckpointBody(t, 1)); err == nil {
		t.Fatal("a values block too short for its series decoded")
	}
	if _, err := decodeCheckpoint(zeroLengthCheckpointBody(t, 1, false)); err == nil {
		t.Fatal("a V2 body of series under length 0 decoded")
	}
	if _, err := decodeCheckpointV1(zeroLengthCheckpointBody(t, 1, true)); err == nil {
		t.Fatal("a V1 body of series under length 0 decoded")
	}
	var negative enc
	negative.u64(1)
	negative.i64(0)
	if err := negative.config(corpus.Config{Length: -1}); err != nil {
		t.Fatal(err)
	}
	negative.u32(0)
	negative.u64(0)
	if _, err := decodeCheckpoint(negative.b); err == nil {
		t.Fatal("a negative series length decoded")
	}

	c := corpus.New(testConfig())
	if _, err := c.Insert(testSeries(0, 16, 3)); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	dir := t.TempDir()
	if err := writeCheckpoint(dir, snap); err != nil {
		t.Fatal(err)
	}
	writeCheckpointFile(t, dir, ckptMagic, snap.Epoch()+1, wrappingCheckpointBody(t, snap.Epoch()+1))
	st, ok, err := loadNewestCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint recovered: ok=%v err=%v", ok, err)
	}
	if st.epoch != snap.Epoch() {
		t.Fatalf("recovered epoch %d, want the intact checkpoint's %d", st.epoch, snap.Epoch())
	}

	// Through Open: newer V2 and V1 checkpoints of series under length 0 are
	// passed over for the intact one.
	writeCheckpointFile(t, dir, ckptMagic, snap.Epoch()+2, zeroLengthCheckpointBody(t, snap.Epoch()+2, false))
	writeCheckpointFile(t, dir, ckptMagicV1, snap.Epoch()+3, zeroLengthCheckpointBody(t, snap.Epoch()+3, true))
	s, err := Open(dir, corpus.Config{}, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Corpus().Snapshot(); got.Epoch() != snap.Epoch() || got.Len() != 1 || got.SeriesLen() != 16 {
		t.Fatalf("Open recovered epoch %d, %d series of length %d, want the intact checkpoint's %d, 1, 16", got.Epoch(), got.Len(), got.SeriesLen(), snap.Epoch())
	}
}

// FuzzDecodeCheckpoint feeds both checkpoint decoders arbitrary bodies, from
// seeds that are real V1 and V2 bodies of a small sampled corpus, the
// wrapping-block body and the zero-length bodies (testdata/fuzz): no input
// may panic, and every series a decoder accepts must hold the config's
// length of values, which is positive.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, v1 bool, body []byte) {
		decode := decodeCheckpoint
		if v1 {
			decode = decodeCheckpointV1
		}
		st, err := decode(body)
		if err != nil {
			return
		}
		for _, rs := range st.series {
			if len(rs.Series.Values) != st.cfg.Length || st.cfg.Length <= 0 {
				t.Fatalf("series %d holds %d values, config length %d", rs.ID, len(rs.Series.Values), st.cfg.Length)
			}
		}
	})
}
