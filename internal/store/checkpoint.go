package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"uncertts/internal/corpus"
)

// A checkpoint file serializes one full corpus state at a recorded epoch.
// Two format versions exist, distinguished by magic:
//
//	| magic "UCKPT002" | u32 CRC32-C(body) | body |
//	body: | u64 epoch | i64 nextID | config | u32 n |
//	      | u64 total | total x f64 |                  (all values, row-major)
//	      | n x (i64 id, label/errors/samples tail) |
//
// V2 is the arena fast path: every series' observation vector lives in one
// flat row-major block (n x length), written straight out of the corpus'
// columnar arena when the snapshot is dense and decoded as a single
// allocation whose rows are subslice views — so a bulk restore performs one
// block read plus one copy into the new corpus arena, instead of one
// allocation and one copy per series.
//
//	| magic "UCKPT001" | u32 CRC32-C(body) | body |
//	body: | u64 epoch | i64 nextID | config | u32 n | n x (i64 id, series) |
//
// V1 interleaves each series' values with its record. New checkpoints are
// always written as V2; readers accept both forever, so corpora
// checkpointed before the columnar refactor keep recovering.
//
// Checkpoints are written to a temporary file, fsynced, and renamed into
// place, so a crash mid-checkpoint leaves at worst an ignorable *.tmp —
// never a half-valid checkpoint. Recovery loads the newest checkpoint
// whose checksum validates and replays the WAL records past its epoch.
// The series records carry raw ingestion data, not derived artifacts:
// envelopes, filtered vectors, energies and phi tables are cheap to
// rebuild through the corpus' incremental-maintenance path and would
// bloat the file many times over.

const (
	ckptMagicV1 = "UCKPT001"
	ckptMagic   = "UCKPT002"
)

func checkpointName(epoch uint64) string { return fmt.Sprintf("checkpoint-%016x.ckpt", epoch) }

// parseCheckpointName returns the epoch of a checkpoint file name.
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	epoch, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 16, 64)
	if err != nil {
		return 0, false
	}
	return epoch, true
}

// listCheckpoints returns the checkpoint epochs present in dir, newest
// first.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		if epoch, ok := parseCheckpointName(e.Name()); ok && !e.IsDir() {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	return epochs, nil
}

// checkpointState is the decoded content of one checkpoint file.
type checkpointState struct {
	epoch  uint64
	nextID int
	cfg    corpus.Config
	series []corpus.RestoredSeries
}

// encodeCheckpoint renders a snapshot as a V2 (columnar) checkpoint body.
func encodeCheckpoint(snap *corpus.Snapshot) ([]byte, error) {
	var e enc
	e.u64(snap.Epoch())
	e.i64(int64(snap.NextID()))
	if err := e.config(snap.Config()); err != nil {
		return nil, err
	}
	n := snap.Len()
	e.u32(uint32(n))
	length := snap.SeriesLen()
	e.u64(uint64(n * length))
	if cols, ok := snap.Columns(); ok && cols.Values.Rows() == n {
		// Dense snapshot: the arena's backing array IS the block.
		e.f64Block(cols.Values.Data())
	} else {
		for i := 0; i < n; i++ {
			e.f64Block(snap.Entry(i).PDF.Observations)
		}
	}
	for i := 0; i < n; i++ {
		ent := snap.Entry(i)
		e.i64(int64(ent.ID))
		s := corpus.Series{Label: ent.PDF.Label}
		if ent.OwnErrors {
			s.Errors = ent.PDF.Errors
		}
		if ent.Samples != nil {
			s.Samples = ent.Samples.Samples
		}
		if err := e.seriesTail(s); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

// decodeCheckpoint parses a V2 (columnar) checkpoint body: the values
// block is decoded once and each restored series receives a subslice view
// into it, so the only per-series allocations are for optional error and
// sample models.
func decodeCheckpoint(body []byte) (checkpointState, error) {
	d := &dec{b: body}
	var st checkpointState
	st.epoch = d.u64()
	st.nextID = int(d.i64())
	st.cfg = d.config()
	if n, ok := d.seriesCount(st.cfg); ok {
		block := d.f64Block()
		length := st.cfg.Length
		if d.err == nil && !holdsRows(len(block), n, length) {
			return checkpointState{}, fmt.Errorf("store: decode: values block holds %d floats, want %d series x length %d", len(block), n, length)
		}
		st.series = make([]corpus.RestoredSeries, 0, n)
		for i := 0; i < n; i++ {
			id := int(d.i64())
			s := d.seriesTail()
			if d.err != nil {
				break
			}
			s.Values = block[i*length : (i+1)*length]
			st.series = append(st.series, corpus.RestoredSeries{ID: id, Series: s})
		}
	}
	if d.err != nil {
		return checkpointState{}, d.err
	}
	if !d.done() {
		return checkpointState{}, fmt.Errorf("store: decode: %d trailing bytes after the checkpoint", len(d.b)-d.off)
	}
	return st, nil
}

// seriesCount reads a checkpoint's series count. A corpus resolves its
// length with its first series, so series under length 0 are a damaged body:
// it fails to decode, and recovery falls back to an older checkpoint.
func (d *dec) seriesCount(cfg corpus.Config) (int, bool) {
	n, ok := d.sliceLen(8)
	if ok && n > 0 && cfg.Length == 0 {
		d.fail("%d series under no series length", n)
		return 0, false
	}
	return n, ok
}

// holdsRows reports whether a block of size floats is exactly n rows of
// length, by division, so that the product n*length of a damaged body
// cannot wrap.
func holdsRows(size, n, length int) bool {
	if length == 0 {
		return size == 0
	}
	return size%length == 0 && size/length == n
}

// decodeCheckpointV1 parses the legacy interleaved body.
func decodeCheckpointV1(body []byte) (checkpointState, error) {
	d := &dec{b: body}
	var st checkpointState
	st.epoch = d.u64()
	st.nextID = int(d.i64())
	st.cfg = d.config()
	if n, ok := d.seriesCount(st.cfg); ok {
		st.series = make([]corpus.RestoredSeries, 0, n)
		for i := 0; i < n; i++ {
			id := int(d.i64())
			s := d.series()
			if d.err != nil {
				break
			}
			if len(s.Values) != st.cfg.Length {
				return checkpointState{}, fmt.Errorf("store: decode: series %d holds %d values, want length %d", id, len(s.Values), st.cfg.Length)
			}
			st.series = append(st.series, corpus.RestoredSeries{ID: id, Series: s})
		}
	}
	if d.err != nil {
		return checkpointState{}, d.err
	}
	if !d.done() {
		return checkpointState{}, fmt.Errorf("store: decode: %d trailing bytes after the checkpoint", len(d.b)-d.off)
	}
	return st, nil
}

// writeCheckpoint durably writes the snapshot as dir/checkpoint-<epoch>:
// temp file, fsync, rename, directory fsync.
func writeCheckpoint(dir string, snap *corpus.Snapshot) error {
	body, err := encodeCheckpoint(snap)
	if err != nil {
		return err
	}
	var hdr [len(ckptMagic) + 4]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[len(ckptMagic):], crc32.Checksum(body, crcTable))

	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(hdr[:]); err != nil {
		cleanup()
		return err
	}
	if _, err := tmp.Write(body); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	final := filepath.Join(dir, checkpointName(snap.Epoch()))
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (checkpointState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return checkpointState{}, err
	}
	if len(data) < len(ckptMagic)+4 {
		return checkpointState{}, fmt.Errorf("store: %s is not a checkpoint file", filepath.Base(path))
	}
	magic := string(data[:len(ckptMagic)])
	if magic != ckptMagic && magic != ckptMagicV1 {
		return checkpointState{}, fmt.Errorf("store: %s is not a checkpoint file", filepath.Base(path))
	}
	sum := binary.LittleEndian.Uint32(data[len(ckptMagic) : len(ckptMagic)+4])
	body := data[len(ckptMagic)+4:]
	if crc32.Checksum(body, crcTable) != sum {
		return checkpointState{}, fmt.Errorf("store: checkpoint %s fails its checksum", filepath.Base(path))
	}
	if magic == ckptMagicV1 {
		return decodeCheckpointV1(body)
	}
	return decodeCheckpoint(body)
}

// loadNewestCheckpoint finds the newest checkpoint in dir that validates,
// skipping over damaged ones (an interrupted compaction may have deleted
// the WAL covering an older checkpoint, but a damaged newest checkpoint
// with intact predecessors plus their WAL suffix still recovers). ok is
// false when dir has no usable checkpoint.
func loadNewestCheckpoint(dir string) (checkpointState, bool, error) {
	epochs, err := listCheckpoints(dir)
	if err != nil {
		return checkpointState{}, false, err
	}
	for _, epoch := range epochs {
		st, err := readCheckpoint(filepath.Join(dir, checkpointName(epoch)))
		if err != nil {
			continue
		}
		if st.epoch != epoch {
			continue
		}
		return st, true, nil
	}
	return checkpointState{}, false, nil
}
