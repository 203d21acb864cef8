package engine

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/stats"
)

// soundnessCase is one adversarial corpus for TestTier0Soundness.
type soundnessCase struct {
	name   string
	length int
	sigma  float64 // per-timestamp error stddev of every series (0 = corpus default)
	tight  bool    // every pair differs by a constant offset: Jensen is an equality
	series [][]float64
}

// soundnessCases enumerates the adversarial inputs of the engine's bounds:
// constant series, zero and huge sigma, length 1, a length below the coarse
// segment count, a length the segments do not divide, near-ties and exact
// duplicates at the k-th distance (the case in which the Jensen bound is
// tight, so only the margin stands between it and the exact distance), and
// series beside their own negations at magnitudes up to 1e150 (q = -c, where
// PROUD's (q - c)^2 <= 2q^2 + 2c^2 is tight, so only the rounding slack stands
// between its unseen-gap bound and the gap).
func soundnessCases() []soundnessCase {
	rng := rand.New(rand.NewSource(13))
	noisy := func(n, length int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, length)
			for t := range out[i] {
				out[i][t] = math.Sin(float64(i)*0.7+float64(t)*0.31) + 0.3*rng.NormFloat64()
			}
		}
		return out
	}
	constant := func(length int, vs ...float64) [][]float64 {
		out := make([][]float64, len(vs))
		for i, v := range vs {
			out[i] = make([]float64, length)
			for t := range out[i] {
				out[i][t] = v
			}
		}
		return out
	}
	// Near-ties: pairs q +/- delta are equidistant from q, and a constant
	// offset makes every segment's Jensen inequality an equality. The base
	// comes twice: an exact duplicate is a tie at distance zero.
	ties := func(length int) [][]float64 {
		base := noisy(1, length)[0]
		out := [][]float64{base, append([]float64(nil), base...)}
		for _, delta := range []float64{1e-3, 1e-3 * (1 + 1e-12), 0.5, 0.5 * (1 + 1e-15), 2} {
			for _, sign := range []float64{1, -1} {
				s := make([]float64, length)
				for t := range s {
					s[t] = base[t] + sign*delta
				}
				out = append(out, s)
			}
		}
		return out
	}
	negated := func(length int) [][]float64 {
		var out [][]float64
		for _, scale := range []float64{1, 1e150} {
			for _, s := range noisy(3, length) {
				pos, neg := make([]float64, length), make([]float64, length)
				for t, v := range s {
					pos[t], neg[t] = scale*v, -scale*v
				}
				out = append(out, pos, neg)
			}
		}
		return out
	}
	return []soundnessCase{
		{name: "noisy-128", length: 128, series: noisy(24, 128)},
		{name: "constant", length: 64, series: constant(64, 0, 0.1, 0.1, -3, 5, 1e6, -1e6, 1e-6)},
		// An exact zero sigma is rejected at ingest (the filters divide by
		// it); this is the smallest one whose variance is still a float64.
		{name: "near-zero-sigma", length: 32, sigma: 1e-150, series: noisy(12, 32)},
		{name: "huge-sigma", length: 32, sigma: 1e150, series: noisy(12, 32)},
		{name: "length-1", length: 1, series: constant(1, 0, 1, -1, 0.5, 1e9)},
		{name: "length-5", length: 5, series: noisy(12, 5)},
		{name: "length-127", length: 127, series: noisy(16, 127)},
		{name: "near-ties", length: 48, tight: true, series: ties(48)},
		{name: "near-ties-ragged", length: 127, tight: true, series: ties(127)},
		{name: "negated-1", length: 1, series: negated(1)},
		{name: "negated-15", length: 15, series: negated(15)},
		{name: "negated-17", length: 17, series: negated(17)},
		{name: "negated-127", length: 127, series: negated(127)},
	}
}

func (sc soundnessCase) corpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c := corpus.New(corpus.Config{ReportedSigma: 0.3})
	batch := make([]corpus.Series, len(sc.series))
	for i, v := range sc.series {
		batch[i] = corpus.Series{Values: v}
		if sc.sigma > 0 {
			d := stats.NewNormal(0, sc.sigma)
			batch[i].Errors = make([]stats.Dist, sc.length)
			for t := range batch[i].Errors {
				batch[i].Errors[t] = d
			}
		}
	}
	if _, err := c.InsertBatch(batch); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	return c
}

// TestTier0Soundness holds tier 0 to its contract directly, pair by pair: for
// the raw, UMA and UEMA vectors the coarse bound never exceeds the squared
// distance the kernel computes (so a skip can never drop a series the scan
// would have kept — not even at a cut equal to the candidate's own
// distance), and PROUD's bracket contains the squared gap. The near-tie
// cases are the ones a relative margin alone fails (the bound is tight and
// the means' rounding dominates); the constant-offset pairs also pin that
// the rounding allowance costs no pruning where the gap is real. DTW's
// sketch-row bound is held to the same contract against the banded kernel,
// and its bound-ordered top-k to the scan's answer, ties at the k-th place
// included.
func TestTier0Soundness(t *testing.T) {
	for _, sc := range soundnessCases() {
		snap := sc.corpus(t).Snapshot()
		checkDTWRowBound(t, sc.name, snap)
		for _, m := range []Measure{MeasureEuclidean, MeasureUMA, MeasureUEMA, MeasurePROUD} {
			e, err := NewFromSnapshot(snap, Options{Measure: m, indexThreshold: -1})
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, m, err)
			}
			if e.pre == nil || e.pre.dtw {
				t.Fatalf("%s/%s: tier 0 not engaged", sc.name, m)
			}
			if w, want := e.pre.coarse.W(), min(sc.length, 16); w != want {
				t.Fatalf("%s: %d coarse segments, want %d", sc.name, w, want)
			}
			if m != MeasurePROUD {
				// The seeded cut: top-k over every series at once, k at and
				// around the tie groups, against the plain scan.
				scan, err := NewFromSnapshot(snap, Options{Measure: m, NoIndex: true})
				if err != nil {
					t.Fatalf("%s/%s: %v", sc.name, m, err)
				}
				for _, k := range []int{1, 2, 3, snap.Len()} {
					if !reflect.DeepEqual(everyTopK(t, e, k), everyTopK(t, scan, k)) {
						t.Errorf("%s/%s k=%d: tier 0 top-k differs from the scan", sc.name, m, k)
					}
				}
			}
			for qi := 0; qi < snap.Len(); qi++ {
				pq, err := e.prepareIndex(qi)
				if err != nil {
					t.Fatal(err)
				}
				lbs := make([]float64, snap.Len())
				e.pre.bounds(pq, lbs, 0)
				for ci := 0; ci < snap.Len(); ci++ {
					var exact float64
					for t, v := range pq.vec {
						d := v - e.vecs.at(ci)[t]
						exact += d * d
					}
					lb := pq.lb2(lbs[ci])
					if lb > exact {
						t.Errorf("%s/%s pair (%d,%d): bound %g exceeds the squared distance %g", sc.name, m, qi, ci, lb, exact)
					}
					if pq.skips(lbs[ci], ulpUp(exact)) {
						t.Errorf("%s/%s pair (%d,%d): tier 0 skips a candidate at its own distance %g", sc.name, m, qi, ci, exact)
					}
					if sc.tight && m == MeasureEuclidean && exact > 1e-9 && lb < exact*(1-1e-6) {
						t.Errorf("%s pair (%d,%d): bound %g is loose on a constant offset of squared distance %g", sc.name, qi, ci, lb, exact)
					}
					if m != MeasurePROUD {
						continue
					}
					// proud.momentBounds widens the upper end by 1e-12
					// relative before any decision; hold ub2 to that.
					if lb2, ub2 := e.proudGap(pq, ci, lbs[ci]); lb2 > exact || exact > ub2*(1+1e-12) {
						t.Errorf("%s pair (%d,%d): PROUD bracket [%g, %g] misses the gap %g", sc.name, qi, ci, lb2, ub2, exact)
					}
				}
			}
		}
	}
}

// TestProudUnseenGapSoundness holds the bound PROUD's accumulation decides
// with to its contract, pair by pair and stride by stride: the gap
// proudMoments hands settled is at least the exact squared gap
// sum_{j >= t} (q_j - c_j)^2 of the timestamps it has not read (math/big, at
// a precision these inputs never round at), and tier 0's bracket holds the
// whole gap the same way. An ad-hoc copy of a resident query carries the
// same energy bits, so both prune alike.
func TestProudUnseenGapSoundness(t *testing.T) {
	const prec = 4096
	sq := func(a, b float64) *big.Float {
		d := new(big.Float).SetPrec(prec).Sub(new(big.Float).SetPrec(prec).SetFloat64(a), new(big.Float).SetPrec(prec).SetFloat64(b))
		return d.Mul(d, d)
	}
	for _, sc := range soundnessCases() {
		snap := sc.corpus(t).Snapshot()
		e := newEngine(t, snap, Options{Measure: MeasurePROUD, indexThreshold: -1})
		n := snap.SeriesLen()
		checks := 0
		for qi := 0; qi < snap.Len(); qi++ {
			pq, err := e.prepareIndex(qi)
			if err != nil {
				t.Fatal(err)
			}
			lbs := make([]float64, snap.Len())
			e.pre.bounds(pq, lbs, 0)
			adhoc, err := e.prepare(Query{Values: pq.vec})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(adhoc.energy) != math.Float64bits(pq.energy) {
				t.Fatalf("%s: query %d: ad-hoc energy %v, resident %v", sc.name, qi, adhoc.energy, pq.energy)
			}
			for ci := 0; ci < snap.Len(); ci++ {
				// rest[t] is the exact gap of timestamps t..n-1.
				c := e.vecs.at(ci)
				rest := make([]*big.Float, n+1)
				rest[n] = new(big.Float).SetPrec(prec)
				for j := n - 1; j >= 0; j-- {
					rest[j] = new(big.Float).SetPrec(prec).Add(rest[j+1], sq(pq.vec[j], c[j]))
				}
				holds := func(at string, tt int, bound float64) {
					if new(big.Float).SetPrec(prec).SetFloat64(bound).Cmp(rest[tt]) < 0 {
						t.Errorf("%s pair (%d,%d) %s t=%d: bound %g below the unseen gap %s", sc.name, qi, ci, at, tt, bound, rest[tt].Text('g', 17))
					}
				}
				_, ub2 := e.proudGap(pq, ci, lbs[ci])
				holds("tier 0", 0, ub2)
				if _, _, err := e.proudMoments(pq, ci, nil, func(_, _ float64, r int, gap float64) bool {
					holds("stride", n-r, gap)
					checks++
					return false
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if want := snap.Len() * snap.Len() * ((n - 1) / proudCheckStride); checks != want {
			t.Errorf("%s: %d stride checks, want %d", sc.name, checks, want)
		}
	}
}

// checkDTWRowBound is TestTier0Soundness for DTW: pair by pair, the deflated
// sketch-row bound never exceeds the square of the distance the kernel
// computes, and the range step does not skip a candidate at its own
// distance; top-k at and around the tie groups equals the plain scan's.
func checkDTWRowBound(t *testing.T, name string, snap *corpus.Snapshot) {
	t.Helper()
	e := newEngine(t, snap, Options{Measure: MeasureDTW, indexThreshold: -1})
	if e.pre == nil || !e.pre.dtw {
		t.Fatalf("%s/DTW: the sketch rows are not engaged", name)
	}
	scan := newEngine(t, snap, Options{Measure: MeasureDTW, NoIndex: true})
	for _, k := range []int{1, 2, 3, snap.Len()} {
		if !reflect.DeepEqual(everyTopK(t, e, k), everyTopK(t, scan, k)) {
			t.Errorf("%s/DTW k=%d: the bound-ordered top-k differs from the scan", name, k)
		}
	}
	for qi := 0; qi < snap.Len(); qi++ {
		pq, err := e.prepareIndex(qi)
		if err != nil {
			t.Fatal(err)
		}
		lbs := make([]float64, snap.Len())
		e.pre.bounds(pq, lbs, 0)
		for ci := 0; ci < snap.Len(); ci++ {
			d, err := distance.DTWBand(pq.vec, e.vecs.at(ci), e.cfg.Band)
			if err != nil {
				t.Fatal(err)
			}
			if lb := pq.lb2(lbs[ci]); lb > d*d {
				t.Errorf("%s/DTW pair (%d,%d): bound %g exceeds the squared distance %g", name, qi, ci, lb, d*d)
			}
			if pq.skips(lbs[ci], ulpUp(d*d)) {
				t.Errorf("%s/DTW pair (%d,%d): the row bound skips a candidate at its own distance %g", name, qi, ci, d)
			}
		}
	}
}

// lockstepBenchCorpus draws a corpus shaped like the repository benchmark's
// base set: series around 64 smooth prototypes plus AR(1) noise,
// z-normalised and rounded to four decimals.
func lockstepBenchCorpus(b *testing.B, n, length int) *corpus.Snapshot {
	b.Helper()
	rng := rand.New(rand.NewSource(20120827))
	protos := make([][]float64, 64)
	for p := range protos {
		protos[p] = make([]float64, length)
		for h := 1; h <= 4; h++ {
			amp, phase := rng.NormFloat64()/float64(h), rng.Float64()*2*math.Pi
			for t := range protos[p] {
				protos[p][t] += amp * math.Sin(2*math.Pi*float64(h)*float64(t)/float64(length)+phase)
			}
		}
	}
	c := corpus.New(corpus.Config{Length: length, ReportedSigma: 0.25})
	batch := make([]corpus.Series, 0, 512)
	for i := 0; i < n; i++ {
		proto := protos[rng.Intn(len(protos))]
		v := make([]float64, length)
		var noise, mean, sq float64
		for t := range v {
			noise = 0.8*noise + 0.35*rng.NormFloat64()
			v[t] = proto[t] + noise
			mean += v[t]
		}
		mean /= float64(length)
		for _, x := range v {
			sq += (x - mean) * (x - mean)
		}
		sd := math.Sqrt(sq / float64(length))
		for t := range v {
			v[t] = math.Round((v[t]-mean)/sd*1e4) / 1e4
		}
		batch = append(batch, corpus.Series{Values: v})
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := c.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return c.Snapshot()
}

// BenchmarkLockstepTopK is the gate finding 3 of bench/README.md lacked: the
// same Euclidean top-10 by resident id, one worker, through tier 0 and
// through the plain scan (NoIndex) at the benchmark's 8192 x 128. An engaged
// prefilter slower than the scan it fronts is a regression.
func BenchmarkLockstepTopK(b *testing.B) {
	if testing.Short() {
		b.Skip("builds an 8192 x 128 corpus")
	}
	snap := lockstepBenchCorpus(b, 8192, 128)
	for _, arm := range []struct {
		name    string
		noIndex bool
	}{{"tier0", false}, {"scan", true}} {
		b.Run(arm.name, func(b *testing.B) {
			e, err := NewFromSnapshot(snap, Options{Measure: MeasureEuclidean, Workers: 1, NoIndex: arm.noIndex})
			if err != nil {
				b.Fatal(err)
			}
			if engaged(e) == arm.noIndex {
				b.Fatalf("engaged = %v", engaged(e))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := (i * 7919) % snap.Len()
				if _, err := e.Run(context.Background(), Request{Kind: KindTopK, Index: &qi, K: 10}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Stats()
			b.ReportMetric(float64(st.Candidates)/float64(b.N), "candidates/op")
			b.ReportMetric(float64(st.Completed)/float64(b.N), "completed/op")
		})
	}
}
