package corpus

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"uncertts/internal/qerr"
	"uncertts/internal/stats"
)

// sameBits reports whether a and b hold the same value, every float64 equal
// bit for bit (reflect.DeepEqual equals -0 to 0), following pointers,
// slices, interfaces and struct fields, unexported ones included.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// checkSameCorpus fails unless got holds want's entries and arena columns,
// bit for bit (the epochs may differ: a batch publishes one).
func checkSameCorpus(t *testing.T, what string, got, want *Snapshot) {
	t.Helper()
	if got.Len() != want.Len() || got.NextID() != want.NextID() || !reflect.DeepEqual(got.Config(), want.Config()) {
		t.Fatalf("%s: len/next ID/config %d/%d/%+v, want %d/%d/%+v", what,
			got.Len(), got.NextID(), got.Config(), want.Len(), want.NextID(), want.Config())
	}
	gm, wm := matrices(got.Arena()), matrices(want.Arena())
	for k := range wm {
		if !sameBits(reflect.ValueOf(gm[k].Data()), reflect.ValueOf(wm[k].Data())) {
			t.Fatalf("%s: arena column %d differs", what, k)
		}
	}
	for i := range want.Len() {
		if !sameBits(reflect.ValueOf(got.Entry(i)), reflect.ValueOf(want.Entry(i))) {
			t.Fatalf("%s: entry %d differs:\n got %+v\nwant %+v", what, i, *got.Entry(i), *want.Entry(i))
		}
	}
}

// TestBatchDerivationMatchesSerialInserts holds the staged, chunked
// derivation of one large batch to the same series inserted one at a time
// (one chunk each, derived inline), and to Restore of the same records: the
// arena columns bit for bit and every entry field. A failing series deep in
// the batch must fail it as the serial loop would — the lowest-index
// failure's message — and leave no trace.
func TestBatchDerivationMatchesSerialInserts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const count, n = 1024, 48
	if count <= 2*deriveChunk {
		t.Fatalf("a %d-series batch is not at least two %d-series chunks", count, deriveChunk)
	}
	own := func(i int) []stats.Dist { // every third series brings its own sigma
		if i%3 != 0 {
			return nil
		}
		errs := make([]stats.Dist, n)
		for t := range errs {
			errs[t] = stats.NewNormal(0, 0.1+0.01*float64(i%7))
		}
		return errs
	}
	mixes := []struct {
		name    string
		cfg     Config
		samples int
		errs    func(i int) []stats.Dist
	}{
		{"own-sigma", Config{Length: n, ReportedSigma: 0.25}, 0, own},
		{"samples", Config{Length: n, ReportedSigma: 0.25, Segments: 4}, 3, func(int) []stats.Dist { return nil }},
		// No length and no sigma: the batch's first series creates the
		// arenas and fixes the geometry.
		{"first-insert", Config{}, 2, own},
	}
	for _, mix := range mixes {
		t.Run(mix.name, func(t *testing.T) {
			batch := batchOf(count, n, mix.samples, 0)
			for i := range batch {
				batch[i].Errors = mix.errs(i)
				batch[i].Label = i % 5
			}
			serial := New(mix.cfg)
			for _, s := range batch {
				if _, err := serial.Insert(s); err != nil {
					t.Fatal(err)
				}
			}
			batched := New(mix.cfg)
			if _, err := batched.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			want, got := serial.Snapshot(), batched.Snapshot()
			if got.Epoch() != 1 {
				t.Fatalf("batch published epoch %d, want 1", got.Epoch())
			}
			checkSameCorpus(t, "batch vs serial", got, want)

			recs := make([]RestoredSeries, count)
			for i, s := range batch {
				recs[i] = RestoredSeries{ID: i, Series: s}
			}
			restored, err := Restore(want.Config(), recs, count, want.Epoch())
			if err != nil {
				t.Fatal(err)
			}
			checkSameCorpus(t, "restore vs serial", restored.Snapshot(), want)
			checkSameCorpus(t, "restore vs batch", restored.Snapshot(), got)

			// A bad series at 700. Two later ones fail differently, a short
			// series (caught while staging) at 900 and an infinite value at
			// 1000, and must not be the one reported.
			for _, bad := range []struct {
				what  string
				spoil func(s *Series)
			}{
				{"NaN value", func(s *Series) { s.Values[5] = math.NaN() }},
				{"short samples row", func(s *Series) {
					if s.Samples == nil {
						s.Samples = batchOf(1, n, 3, 0)[0].Samples
					}
					s.Samples[9] = s.Samples[9][:0]
				}},
			} {
				spoilt := append([]Series(nil), batch...)
				for _, i := range []int{700, 900, 1000} {
					s := testSeries(n, mix.samples, float64(i))
					s.Errors = batch[i].Errors
					spoilt[i] = s
				}
				bad.spoil(&spoilt[700])
				spoilt[900].Values = spoilt[900].Values[:n-1]
				spoilt[1000].Values[0] = math.Inf(1)
				// The serial loop's error: the same series inserted one at a
				// time into a corpus in the same state (the message names the
				// stable ID).
				serialErr := func(c *Corpus) error {
					for _, s := range spoilt {
						if _, err := c.Insert(s); err != nil {
							return err
						}
					}
					t.Fatalf("%s: the spoilt series insert one at a time", bad.what)
					return nil
				}
				twin, err := Restore(want.Config(), recs, count, want.Epoch())
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct{ corpus, twin *Corpus }{{New(mix.cfg), New(mix.cfg)}, {batched, twin}} {
					c, wantErr := c.corpus, serialErr(c.twin)
					before := c.Snapshot()
					var rows int
					if c.ar != nil {
						rows = c.ar.rows()
					}
					_, err := c.InsertBatch(spoilt)
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s: batch error %v, want the serial loop's %v", bad.what, err, wantErr)
					}
					if c.Snapshot() != before || c.Snapshot().Epoch() != before.Epoch() {
						t.Fatalf("%s: a failed batch published a snapshot", bad.what)
					}
					if c.ar != nil && c.ar.rows() != rows || c.ar == nil && rows != 0 {
						t.Fatalf("%s: a failed batch left staged rows behind", bad.what)
					}
				}
				rrecs := make([]RestoredSeries, count)
				for i, s := range spoilt {
					rrecs[i] = RestoredSeries{ID: i, Series: s}
				}
				wantErr := serialErr(New(mix.cfg))
				if _, err := Restore(want.Config(), rrecs, count, 1); err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: restore error %v, want %v", bad.what, err, wantErr)
				}
			}
			checkSameCorpus(t, "batch after failed batches", batched.Snapshot(), got)
		})
	}
}

// BenchmarkInsertBatch: one 512-series batch of length 128 into an empty
// corpus, plain and with 3 samples a timestamp — staging and derivation,
// with no growth copy (the first batch sizes the arenas). The instrument
// deriveChunk was chosen with.
func BenchmarkInsertBatch(b *testing.B) {
	for _, samples := range []int{0, 3} {
		batch := batchOf(512, 128, samples, 0)
		b.Run(fmt.Sprintf("512x128/samples=%d", samples), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := New(Config{ReportedSigma: 0.25}).InsertBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDeriveMatchesTheInsert: a series derived against a snapshot carries,
// bit for bit, the artifacts its insert gave it — its row of every arena
// column and every entry field but the ID and the row — under each way the
// corpus sets a default error model, and fails where the insert fails, with
// the insert's typed error.
func TestDeriveMatchesTheInsert(t *testing.T) {
	sigmas, errs := make([]float64, 16), make([]stats.Dist, 16)
	for i := range sigmas {
		sigmas[i] = 0.1 + 0.07*float64(i%5)
		errs[i] = stats.NewNormal(0, sigmas[i])
	}
	batch := batchOf(6, 16, 3, 0)
	batch[2].Errors = errs // a series with its own model
	for _, cfg := range []Config{{ReportedSigma: 0.25}, {ReportedSigma: 0.25, Sigmas: sigmas}, {Errors: errs}} {
		c := New(cfg)
		if _, err := c.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		resident := matrices(s.Arena())
		for i, rec := range batch {
			e, cols, err := s.Derive(rec)
			if err != nil {
				t.Fatal(err)
			}
			for k, m := range matrices(cols) {
				if m.Rows() != 1 || !sameBits(reflect.ValueOf(m.Row(0)), reflect.ValueOf(resident[k].Row(i))) {
					t.Fatalf("%+v: series %d: derived column %d differs from the inserted row", cfg, i, k)
				}
			}
			want := *s.Entry(i)
			want.ID, want.PDF.ID, want.row = -1, -1, 0
			samples := *want.Samples
			samples.ID, want.Samples = -1, &samples
			if !sameBits(reflect.ValueOf(e), reflect.ValueOf(&want)) {
				t.Fatalf("%+v: series %d: derived entry %+v, inserted %+v", cfg, i, *e, want)
			}
		}
		short, badSamples := batch[0], batch[0]
		short.Values = short.Values[:9]
		badSamples.Samples = badSamples.Samples[:9]
		for _, bad := range []Series{short, badSamples} {
			_, insErr := c.Insert(bad)
			if _, _, err := s.Derive(bad); !errors.Is(err, qerr.ErrLengthMismatch) || err.Error() != insErr.Error() {
				t.Errorf("%+v: derive error %v, insert error %v; want the insert's, a length mismatch", cfg, err, insErr)
			}
		}
	}
}

// BenchmarkDerive times what an ad-hoc query pays before its scan: one
// length-128 series derived against a resident corpus (Snapshot.Derive),
// plain and with 3 samples a timestamp, allocations included.
func BenchmarkDerive(b *testing.B) {
	for _, samples := range []int{0, 3} {
		c := New(Config{ReportedSigma: 0.25})
		if _, err := c.InsertBatch(batchOf(64, 128, samples, 0)); err != nil {
			b.Fatal(err)
		}
		s, q := c.Snapshot(), testSeries(128, samples, 999)
		b.Run(fmt.Sprintf("128/samples=%d", samples), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, err := s.Derive(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
