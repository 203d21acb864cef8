package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/munich"
	"uncertts/internal/sketch"
	"uncertts/internal/timeseries"
)

// indexCorpusConfig is the geometry the index tests pin.
func indexCorpusConfig() corpus.Config {
	return corpus.Config{ReportedSigma: 0.3, Segments: 4}
}

// residentAnswers is answers for the resident series at position qi.
func residentAnswers(t testing.TB, e *Engine, qi int, eps float64) interface{} {
	t.Helper()
	return answers(t, e, Request{Index: &qi}, eps)
}

// prefiltered reports whether the measure has a prefilter at all.
func prefiltered(m Measure) bool { return m != MeasureDUST && m != MeasureMUNICH }

// engaged reports whether a prefilter — tier 0 or the sketch rows — serves
// the engine's queries (false when it runs the plain scan: small snapshot,
// NoIndex/NoPrune, or a measure without either).
func engaged(e *Engine) bool { return e.pre != nil }

// prefilterCorpus is 64 series under the index-test geometry.
func prefilterCorpus(t *testing.T) *corpus.Snapshot {
	t.Helper()
	const n, length = 64, 32
	c := corpus.New(indexCorpusConfig())
	batch := make([]corpus.Series, n)
	for i := range batch {
		batch[i] = corpusSeries(length, int64(i))
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	return c.Snapshot()
}

// TestIndexedStatsIdentity checks the accounting of prefiltered queries over
// a run of requests: Candidates still equals the sum of the resolution
// counters, every candidate the linear scan would have examined is either
// examined or accounted to SeriesSkippedByIndex, no measure reports a bucket
// decision (DTW skips series by its sketch-row bound, not buckets), and
// Distance, the reference lookup tests interleave with queries, moves no
// counter.
func TestIndexedStatsIdentity(t *testing.T) {
	const queries = 10
	snap := prefilterCorpus(t)
	n := snap.Len()
	for _, base := range allMeasureOptions() {
		opts := base
		opts.indexThreshold = -1
		e := newEngine(t, snap, opts)
		for qi := 0; qi < queries; qi++ {
			req := Request{Kind: KindTopK, Index: &qi, K: 3}
			if base.Measure.Probabilistic() {
				req.Kind, req.Eps = KindProbTopK, 2.0
			}
			mustRun(t, e, req)
			before := e.Stats()
			if _, err := e.Distance(qi, (qi+1)%n); err != nil && !base.Measure.Probabilistic() {
				t.Fatal(err)
			}
			if after := e.Stats(); after != before {
				t.Fatalf("%s: Distance moved the counters: %+v -> %+v", base.Measure, before, after)
			}
		}
		s := e.Stats()
		if sum := s.Completed + s.AbandonedEarly + s.PrunedByEnvelope + s.ResolvedByBounds + s.ResolvedEarly; sum != s.Candidates {
			t.Errorf("%s: resolution counters sum to %d, want Candidates %d", base.Measure, sum, s.Candidates)
		}
		if total := s.Candidates + s.SeriesSkippedByIndex; total != int64(queries*(n-1)) {
			t.Errorf("%s: Candidates %d + SeriesSkippedByIndex %d = %d, want %d",
				base.Measure, s.Candidates, s.SeriesSkippedByIndex, total, queries*(n-1))
		}
		if s.BucketsVisited != 0 || s.BucketsPruned != 0 {
			t.Errorf("%s: %d buckets visited, %d pruned; no measure walks a bucket tree", base.Measure, s.BucketsVisited, s.BucketsPruned)
		}
		if (s.SeriesSkippedByIndex > 0) != prefiltered(base.Measure) {
			t.Errorf("%s: SeriesSkippedByIndex = %d, prefiltered = %v", base.Measure, s.SeriesSkippedByIndex, prefiltered(base.Measure))
		}
	}
}

// TestStatsStringNamesThePrefilter pins the one-line summary /stats and
// uncertquery print: whatever a prefilter skipped is reported, tier 0's and
// DTW's sketch rows' alike, no line names buckets, and a plain scan says
// nothing about an index.
func TestStatsStringNamesThePrefilter(t *testing.T) {
	snap := prefilterCorpus(t)
	for _, tc := range []struct {
		name    string
		opts    Options
		skipped bool // "N series skipped" is printed
	}{
		{"tier 0", Options{Measure: MeasureEuclidean, indexThreshold: -1}, true},
		{"DTW sketch rows", Options{Measure: MeasureDTW, indexThreshold: -1}, true},
		{"plain scan", Options{Measure: MeasureEuclidean, NoIndex: true}, false},
	} {
		e := newEngine(t, snap, tc.opts)
		qi := 5
		mustRun(t, e, Request{Kind: KindTopK, Index: &qi, K: 3})
		s := e.Stats()
		line := s.String()
		wantSkipped := fmt.Sprintf("%d series skipped", s.SeriesSkippedByIndex)
		if got := strings.Contains(line, "; index: ") && strings.HasSuffix(line, wantSkipped); got != tc.skipped {
			t.Errorf("%s: skipped clause present = %v, want %v: %q", tc.name, got, tc.skipped, line)
		}
		if strings.Contains(line, "bucket") {
			t.Errorf("%s: the line names buckets: %q", tc.name, line)
		}
		if tc.skipped && s.SeriesSkippedByIndex == 0 {
			t.Errorf("%s: the prefilter skipped nothing; the case proves nothing", tc.name)
		}
	}
}

// TestIndexChurnParity is the incremental-maintenance property: after every
// mutation of an interleaved insert/delete workload (crossing at least one
// compaction), the prefilters over the incrementally maintained columns
// answer bit-identically to the prefilters over a restored copy of the same
// snapshot, and to the linear scan.
func TestIndexChurnParity(t *testing.T) {
	const length = 24
	c := corpus.New(indexCorpusConfig())
	sawSparse, sawCompaction := false, false
	next := 0
	var live []int
	for step := 0; step < 8; step++ {
		batch := make([]corpus.Series, 6)
		for i := range batch {
			batch[i] = corpusSeries(length, int64(next))
			next++
		}
		var del []int
		if step >= 2 {
			// Delete four of the oldest survivors; every few steps this
			// pushes the dead-row ratio past the compaction threshold.
			del = append(del, live[:4]...)
			live = live[4:]
		}
		ids, err := c.Apply(batch, del)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids...)

		snap := c.Snapshot()
		if _, dense := snap.Columns(); dense {
			if sawSparse {
				sawCompaction = true
			}
		} else {
			sawSparse = true
		}

		// A restored corpus rebuilds every column from scratch over the
		// same resident series in the same position order.
		recs := make([]corpus.RestoredSeries, snap.Len())
		for i := 0; i < snap.Len(); i++ {
			ent := snap.Entry(i)
			s := corpus.Series{Values: ent.PDF.Observations}
			if ent.Samples != nil {
				s.Samples = ent.Samples.Samples
			}
			recs[i] = corpus.RestoredSeries{ID: ent.ID, Series: s}
		}
		restored, err := corpus.Restore(snap.Config(), recs, snap.NextID(), snap.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		rsnap := restored.Snapshot()

		for _, base := range allMeasureOptions() {
			opts := base
			opts.indexThreshold = -1
			linOpts := opts
			linOpts.NoIndex = true
			inc, err := NewFromSnapshot(snap, opts)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, base.Measure, err)
			}
			bulk, err := NewFromSnapshot(rsnap, opts)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, base.Measure, err)
			}
			lin, err := NewFromSnapshot(snap, linOpts)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, base.Measure, err)
			}
			for _, qi := range []int{0, snap.Len() / 2} {
				got := residentAnswers(t, inc, qi, 2.5)
				want := residentAnswers(t, lin, qi, 2.5)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("step %d %s q=%d: incremental index %v != linear %v", step, base.Measure, qi, got, want)
				}
				fresh := residentAnswers(t, bulk, qi, 2.5)
				if !reflect.DeepEqual(fresh, want) {
					t.Errorf("step %d %s q=%d: bulk-rebuilt index %v != linear %v", step, base.Measure, qi, fresh, want)
				}
			}
		}
	}
	if !sawSparse || !sawCompaction {
		t.Fatalf("churn never exercised both arena states (sparse=%v, compaction=%v)", sawSparse, sawCompaction)
	}
}

// TestIndexFallbacks enumerates the configurations that must fall back to
// the linear scan.
func TestIndexFallbacks(t *testing.T) {
	c := testCorpus(t, 16, 32) // default sketch knobs
	snap := c.Snapshot()
	cases := []struct {
		name string
		opts Options
	}{
		{"below default threshold", Options{Measure: MeasureEuclidean}},
		{"NoIndex", Options{Measure: MeasureEuclidean, NoIndex: true, indexThreshold: -1}},
		{"NoPrune", Options{Measure: MeasureEuclidean, NoPrune: true, indexThreshold: -1}},
		{"DUST has no prefilter", Options{Measure: MeasureDUST, indexThreshold: -1}},
		{"MUNICH has no prefilter", Options{Measure: MeasureMUNICH, indexThreshold: -1, MUNICH: munich.Options{Bins: 256}}},
	}
	for _, tc := range cases {
		e, err := NewFromSnapshot(snap, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if engaged(e) {
			t.Errorf("%s: engine unexpectedly indexed", tc.name)
		}
	}
	e, err := NewFromSnapshot(snap, Options{Measure: MeasureEuclidean, indexThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !engaged(e) {
		t.Error("negative indexThreshold did not engage the index")
	}
	// Results through a fallback engine still match: the sanity anchor for
	// every case above.
	want := fmt.Sprintf("%v", residentAnswers(t, e, 0, 2.5))
	for _, tc := range cases[:3] {
		el, err := NewFromSnapshot(snap, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v", residentAnswers(t, el, 0, 2.5)); got != want {
			t.Errorf("%s: fallback answer %s != indexed %s", tc.name, got, want)
		}
	}
}

// dtwLB2Ref is the sketch-row bound as its definition states it, two
// sketch.MinDistSquared passes: the reference dtwLB2's one fused pass must
// match bit for bit.
// envelope returns v's LB_Keogh envelopes under the band in fresh slices.
func envelope(v []float64, band int) (upper, lower []float64) {
	upper, lower = make([]float64, len(v)), make([]float64, len(v))
	distance.EnvelopeIntoScratch(upper, lower, v, band, &distance.EnvelopeScratch{})
	return upper, lower
}

func dtwLB2Ref(p *prefilter, pq *prepared, row []float64) float64 {
	lay, w := p.lay, p.lay.W
	kim := p.kim(pq, row)
	interior := lay.Interior()
	if interior == nil {
		return kim
	}
	q := pq.qrow
	fwd := sketch.MinDistSquared(q[1:w-1], row[lay.OffKLo()+1:lay.OffKLo()+w-1], row[lay.OffKHi()+1:lay.OffKHi()+w-1], interior)
	rev := sketch.MinDistSquared(row[1:w-1], q[lay.OffKLo()+1:lay.OffKLo()+w-1], q[lay.OffKHi()+1:lay.OffKHi()+w-1], interior)
	return kim + math.Max(fwd, rev)
}

// dtwLB2Go is dtwLB2 over the Go loop (envelopeGapsGo) in place of
// envelopeGaps: the assembly pass must match it bit for bit.
func dtwLB2Go(p *prefilter, pq *prepared, row []float64) float64 {
	kim := p.kim(pq, row)
	k, w := len(p.widths), p.lay.W
	if k == 0 {
		return kim
	}
	q := pq.qrow
	fwd, rev := envelopeGapsGo(p.widths, q[1:k+1], q[w+1:w+k+1], q[2*w+1:2*w+k+1], row[1:k+1], row[w+1:w+k+1], row[2*w+1:2*w+k+1])
	return kim + math.Max(fwd, rev)
}

// orderRef is DTW top-k's scan order as an indirect sort of positions by
// their bounds, ties by position: the reference order must match.
func orderRef(lbs []float64, self int) []int {
	cands := make([]int, 0, len(lbs))
	for ci := range lbs {
		if ci != self {
			cands = append(cands, ci)
		}
	}
	slices.SortFunc(cands, func(a, b int) int { return cmp.Or(cmp.Compare(lbs[a], lbs[b]), a-b) })
	return cands
}

// TestFusedSketchBoundMatchesDefinition holds dtwLB2 to dtwLB2Ref,
// Float64bits, over z-normalised random walks and flat series (whose
// envelopes close, lo == hi) at the served shape and at ragged and narrow
// layouts down to W < 3, where only the endpoint terms remain. Every query
// meets every row, its own row, and each row bent so that the query's
// segment means lie exactly on an envelope edge and the row's means exactly
// on the query's envelope edges.
func TestFusedSketchBoundMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	walk := func(n int) []float64 {
		v := make([]float64, n)
		for i := 1; i < n; i++ {
			v[i] = v[i-1] + rng.NormFloat64()
		}
		timeseries.NormalizeInPlace(v)
		return v
	}
	flat := func(n int, c float64) []float64 { return slices.Repeat([]float64{c}, n) }
	var compared, edges, closed int
	for _, shape := range []struct{ n, w, band int }{{128, 64, 12}, {128, 64, 0}, {100, 7, 5}, {37, 5, 40}, {16, 3, 2}, {16, 2, 3}, {16, 1, 3}, {1, 1, 0}} {
		lay := sketch.NewLayout(shape.n, shape.w)
		p := dtwPrefilter(lay, rows{})
		if len(p.widths) != max(lay.W-2, 0) {
			t.Fatalf("n=%d W=%d: %d interior widths", shape.n, lay.W, len(p.widths))
		}
		var series [][]float64
		for i := 0; i < 24; i++ {
			series = append(series, walk(shape.n))
		}
		series = append(series, flat(shape.n, 0.3), flat(shape.n, -1.25), flat(shape.n, 0.3))
		sketchRow := func(v []float64) []float64 {
			row := make([]float64, lay.Stride())
			up, lo := envelope(v, shape.band)
			lay.FillRow(row, v, up, lo)
			return row
		}
		rowsOf := make([][]float64, len(series))
		for i, v := range series {
			rowsOf[i] = sketchRow(v)
		}
		w := lay.W
		for qi, q := range series {
			pq := &prepared{self: qi, vec: q, qrow: rowsOf[qi]}
			qlo, qhi := pq.qrow[lay.OffKLo():], pq.qrow[lay.OffKHi():]
			cands := append([][]float64(nil), rowsOf...)
			for _, row := range rowsOf {
				// Bend a copy onto the edges, alternating sides by segment.
				bent := slices.Clone(row)
				for j := 1; j < w-1; j++ {
					v, klo, khi := pq.qrow[j], &bent[lay.OffKLo()+j], &bent[lay.OffKHi()+j]
					if j%2 == 0 && v <= *khi || v < *klo {
						*klo = v
					} else {
						*khi = v
					}
					if j%2 == 0 {
						bent[j] = qlo[j]
					} else {
						bent[j] = qhi[j]
					}
				}
				cands = append(cands, bent)
			}
			for _, row := range cands {
				for j := 1; j < w-1; j++ {
					klo, khi := row[lay.OffKLo()+j], row[lay.OffKHi()+j]
					if klo > khi || qlo[j] > qhi[j] {
						t.Fatalf("n=%d W=%d segment %d: an envelope with lo > hi", shape.n, w, j)
					}
					if v := pq.qrow[j]; v == klo || v == khi || row[j] == qlo[j] || row[j] == qhi[j] {
						edges++
					}
					if klo == khi {
						closed++
					}
				}
				got, want := p.dtwLB2(pq, row), dtwLB2Ref(p, pq, row)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d W=%d band=%d query %d: fused bound %v, definition %v", shape.n, w, shape.band, qi, got, want)
				}
				if goLB := dtwLB2Go(p, pq, row); math.Float64bits(got) != math.Float64bits(goLB) {
					t.Fatalf("n=%d W=%d band=%d query %d: fused bound %v, its Go loop %v", shape.n, w, shape.band, qi, got, goLB)
				}
				compared++
			}
		}
	}
	t.Logf("%d rows compared; %d segments on an envelope edge, %d with lo == hi", compared, edges, closed)
	if edges == 0 || closed == 0 {
		t.Fatalf("the table reaches no edge (%d) or no closed envelope (%d)", edges, closed)
	}
}

// TestOrderMatchesComparator holds order, a radix sort, to orderRef, a
// comparator sort, over bounds with many ties, zeros of both signs,
// infinities and NaNs, and over bounds of every magnitude and both signs,
// whose keys differ in every byte; with self inside, outside and absent.
// One scratch serves every trial, as an engine's pool does.
func TestOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	s := new(scratch)
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(300)
		if trial%10 == 0 {
			n = 1000 + rng.Intn(2000)
		}
		lbs := make([]float64, n)
		for i := range lbs {
			switch rng.Intn(12) {
			case 0:
				lbs[i] = math.Inf(1)
			case 1:
				lbs[i] = math.Copysign(0, -1)
			case 2:
				lbs[i] = math.NaN()
			case 3:
				lbs[i] = math.Inf(-1)
			default:
				if trial%2 == 1 {
					lbs[i] = math.Float64frombits(rng.Uint64()) // any magnitude, some NaN
				} else {
					lbs[i] = float64(rng.Intn(25)) * 0.125
				}
			}
		}
		self := rng.Intn(n+2) - 1
		if got, want := order(lbs, self, s), orderRef(lbs, self); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d self=%d): order %v, comparator %v", trial, n, self, got, want)
		}
	}
}

// FuzzSketchBound holds dtwLB2 to its Go loop (dtwLB2Go) bit for bit on a
// fuzzed query and series: int8s scaled to at most |scale| (a scale that is
// not finite reads as 1), so near math.MaxFloat64 a segment's sum overflows
// and the bound is NaN. The rows are the series', its negation's and the
// query's own; over their bounds order must match the comparator and put
// every NaN bound first.
func FuzzSketchBound(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30, 40, 50, 60, 70}, []byte{7, 7, 7, 200, 200, 7, 7, 7}, 1.0, 2, uint8(4))
	f.Add([]byte{127, 127, 127, 127, 1, 2, 3, 4, 5}, []byte{129, 129, 129, 129, 0, 0, 0, 0, 0}, 1.7e308, 1, uint8(3))
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1}, 1e300, 0, uint8(64))
	f.Add(slices.Repeat([]byte{127}, 8), []byte{127, 127, 127, 127, 0, 0, 0, 0}, 1.7e308, 1, uint8(4)) // interior sums overflow
	f.Fuzz(func(t *testing.T, qs, cs []byte, scale float64, band int, segs uint8) {
		n := len(qs)
		if n == 0 || n > 256 || len(cs) < n || band < 0 || band > n {
			return
		}
		if math.IsInf(scale, 0) || math.IsNaN(scale) {
			scale = 1
		}
		values := func(b []byte, sign float64) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = sign * float64(int8(b[i])) / 128 * scale
			}
			return v
		}
		lay := sketch.NewLayout(n, max(int(segs)%65, 1))
		p := dtwPrefilter(lay, rows{})
		sketchRow := func(c []float64) []float64 {
			row := make([]float64, lay.Stride())
			up, lo := envelope(c, band)
			lay.FillRow(row, c, up, lo)
			return row
		}
		q := values(qs, 1)
		pq := &prepared{self: -1, vec: q, qrow: sketchRow(q)}
		var lbs []float64
		for _, c := range [][]float64{values(cs, 1), values(cs, -1), q} {
			row := sketchRow(c)
			got, want := p.dtwLB2(pq, row), dtwLB2Go(p, pq, row)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("q=%v c=%v band=%d W=%d: bound %v, Go loop %v", q, c, band, lay.W, got, want)
			}
			lbs = append(lbs, got)
		}
		got := order(lbs, -1, new(scratch))
		if want := orderRef(lbs, -1); !slices.Equal(got, want) {
			t.Fatalf("bounds %v: order %v, comparator %v", lbs, got, want)
		}
		for i := 1; i < len(got); i++ {
			if math.IsNaN(lbs[got[i]]) && !math.IsNaN(lbs[got[i-1]]) {
				t.Fatalf("bounds %v: order %v puts a NaN bound after a number", lbs, got)
			}
		}
	})
}

// racePoolDrops is set under the race detector (race_test.go), whose
// sync.Pool drops a share of the objects put back.
var racePoolDrops bool

// TestWarmQueryAllocations holds a warm engine's queries to the few objects
// they allocate beside the storage the engine pools (the prefilter's bounds,
// DTW top-k's order, a batch's DTW scratch): each kind of query below
// allocates under one float64 per resident series, and no more objects than
// counted when the pools went in (a bound array per query, or order's two
// slices, would add to both). A resident DTW query reads its own sketch row
// rather than rebuilding its envelope and PAAs; an ad-hoc query pays for its
// derivation (corpus.Snapshot.Derive: a one-row arena set, its entry and its
// filter input), 36 objects over the resident query's, and its sigma two
// more: the error model's slice and the one distribution every timestamp
// shares (one boxed per timestamp would add 64).
func TestWarmQueryAllocations(t *testing.T) {
	if racePoolDrops {
		t.Skip("under the race detector sync.Pool drops put-back objects at random, so a warm query's allocations vary")
	}
	snap := testCorpus(t, 1100, 64).Snapshot() // past the prefilter's threshold
	qi := 5
	adhoc := adhocQueryFor(64)
	adhoc.Samples = nil
	withSigma := adhoc
	withSigma.Sigma = 0.3
	bytesPerRun := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 20
	}
	// An ad-hoc query's derivation allocates by the series length, not by
	// the corpus size: its bytes come on top of the budget.
	derived := bytesPerRun(func() {
		if _, _, err := snap.Derive(corpus.Series{Values: adhoc.Values}); err != nil {
			t.Fatal(err)
		}
	})
	for _, tc := range []struct {
		req    Request
		allocs float64
	}{
		{Request{Measure: MeasureEuclidean, Kind: KindTopK, Index: &qi, K: 10}, 22},
		{Request{Measure: MeasureEuclidean, Kind: KindTopK, AdHoc: &adhoc, K: 10}, 58},
		{Request{Measure: MeasureEuclidean, Kind: KindTopK, AdHoc: &withSigma, K: 10}, 60},
		{Request{Measure: MeasureDTW, Kind: KindTopK, Index: &qi, K: 10}, 21},
		{Request{Measure: MeasurePROUD, Kind: KindProbRange, Index: &qi, Eps: 2.5, Tau: 0.5}, 7},
	} {
		e := newEngine(t, snap, Options{Measure: tc.req.Measure, Workers: 1})
		run := func() {
			if _, err := e.Run(context.Background(), tc.req); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > tc.allocs {
			t.Errorf("%v %v: %v objects a warm query, want at most %v", tc.req.Measure, tc.req.Kind, allocs, tc.allocs)
		}
		budget := uint64(8 * snap.Len())
		if tc.req.AdHoc != nil {
			budget += derived
		}
		if b := bytesPerRun(run); b >= budget {
			t.Errorf("%v %v: %d bytes a warm query, not under one float64 for each of %d series (plus %d derived)", tc.req.Measure, tc.req.Kind, b, snap.Len(), budget-uint64(8*snap.Len()))
		}
	}
}

// BenchmarkSketchBound times the sketch-row bound over 1024 rows at the
// served shape (128 points, 64 segments, band 12): dtwLB2 (asm on amd64)
// beside its Go loop (go), and DTW top-k's order over those bounds beside the
// comparator sort it replaced (sortfunc).
func BenchmarkSketchBound(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	const n, band = 128, 12
	lay := sketch.NewLayout(n, sketch.DefaultSegments)
	p := dtwPrefilter(lay, rows{})
	series := func() []float64 {
		v := make([]float64, n)
		for i := 1; i < n; i++ {
			v[i] = v[i-1] + rng.NormFloat64()
		}
		timeseries.NormalizeInPlace(v)
		return v
	}
	sketchRows := make([][]float64, 1024)
	for i := range sketchRows {
		v := series()
		up, lo := envelope(v, band)
		sketchRows[i] = make([]float64, lay.Stride())
		lay.FillRow(sketchRows[i], v, up, lo)
	}
	q := series()
	up, lo := envelope(q, band)
	pq := &prepared{self: -1, vec: q, qrow: make([]float64, lay.Stride())}
	lay.FillRow(pq.qrow, q, up, lo)
	lbs := make([]float64, len(sketchRows))
	for i, row := range sketchRows {
		lbs[i] = p.dtwLB2(pq, row)
	}
	b.Run("dtwLB2", func(b *testing.B) {
		for range b.N {
			for i, row := range sketchRows {
				lbs[i] = p.dtwLB2(pq, row)
			}
		}
	})
	b.Run("dtwLB2/go", func(b *testing.B) {
		for range b.N {
			for i, row := range sketchRows {
				lbs[i] = dtwLB2Go(p, pq, row)
			}
		}
	})
	s := new(scratch)
	b.Run("order", func(b *testing.B) {
		for range b.N {
			order(lbs, 3, s)
		}
	})
	b.Run("order/sortfunc", func(b *testing.B) {
		for range b.N {
			orderRef(lbs, 3)
		}
	})
}
