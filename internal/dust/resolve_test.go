package dust

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// valueRef is Value as it was before the evaluator remembered its last
// resolution: every point goes to the string-keyed cache.
func valueRef(d *Dust, x, y float64, errX, errY stats.Dist) float64 {
	if d.opts.Exact {
		v, err := d.Value(x, y, errX, errY) // no table, nothing remembered
		if err != nil {
			panic(err)
		}
		return v
	}
	return math.Sqrt(d.tableByString(errX, errY).lookup(math.Abs(x-y), d))
}

// prefixRef returns the running sums of Equation 13 over valueRef: entry i
// is the squared distance accumulated through timestamp i.
func prefixRef(d *Dust, q, c uncertain.PDFSeries) []float64 {
	prefix := make([]float64, q.Len())
	var acc float64
	for i := range prefix {
		v := valueRef(d, q.Observations[i], c.Observations[i], q.Errors[i], c.Errors[i])
		acc += v * v
		prefix[i] = acc
	}
	return prefix
}

// modelCases builds the pairs of series the resolver is checked on: (a) one
// shared default model, (b) leaf models alternating per timestamp so the
// remembered pair never repeats, (c) mixtures — everywhere, and at some
// timestamps only.
func modelCases(n int) map[string][2]uncertain.PDFSeries {
	rng := rand.New(rand.NewSource(5))
	obs := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Round(rng.NormFloat64()*1e4) / 1e4
		}
		return v
	}
	leaves := []stats.Dist{stats.NewNormal(0, 0.5), stats.NewUniformByStdDev(0.7), stats.NewExponentialByStdDev(0.4)}
	mix := stats.NewMixture([]stats.Dist{stats.NewNormal(0, 0.3), stats.NewUniformByStdDev(1)}, []float64{0.8, 0.2})
	models := func(pick func(i int) stats.Dist) []stats.Dist {
		errs := make([]stats.Dist, n)
		for i := range errs {
			errs[i] = pick(i)
		}
		return errs
	}
	shared := models(func(int) stats.Dist { return leaves[0] })
	pair := func(qe, ce []stats.Dist) [2]uncertain.PDFSeries {
		return [2]uncertain.PDFSeries{{Observations: obs(), Errors: qe, ID: 0}, {Observations: obs(), Errors: ce, ID: 1}}
	}
	return map[string][2]uncertain.PDFSeries{
		"shared":      pair(shared, shared),
		"alternating": pair(models(func(i int) stats.Dist { return leaves[i%3] }), models(func(i int) stats.Dist { return leaves[(i/2)%3] })),
		"mixture":     pair(models(func(int) stats.Dist { return mix }), models(func(int) stats.Dist { return mix })),
		"some-mixture": pair(models(func(i int) stats.Dist {
			if i%5 == 2 {
				return mix
			}
			return leaves[0]
		}), shared),
	}
}

// TestDistancesMatchPerPointReference: the two series distances equal the
// accumulation over per-point values resolved through the string-keyed cache
// alone, bit for bit, whatever the run structure of the error models.
func TestDistancesMatchPerPointReference(t *testing.T) {
	for _, exact := range []bool{false, true} {
		n := 96
		if exact {
			n = 24 // every phi is evaluated
		}
		for name, qc := range modelCases(n) {
			t.Run(fmt.Sprintf("%s/exact=%v", name, exact), func(t *testing.T) {
				q, c := qc[0], qc[1]
				d, ref := New(Options{Exact: exact}), New(Options{Exact: exact})
				prefix := prefixRef(ref, q, c)
				for i := range prefix {
					v := valueRef(ref, q.Observations[i], c.Observations[i], q.Errors[i], c.Errors[i])
					got, err := d.Value(q.Observations[i], c.Observations[i], q.Errors[i], c.Errors[i])
					if err != nil || math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("Value at %d = %v (%v), reference %v", i, got, err, v)
					}
				}
				acc := prefix[n-1]
				want := math.Sqrt(acc)
				if got, err := d.Distance(q, c); err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Distance = %v (%v), reference %v", got, err, want)
				}
				for _, cutoff := range []float64{math.Inf(1), acc, prefix[n/2], prefix[0] / 2, 0} {
					wantAcc, wantOK := acc, true
					for _, p := range prefix {
						if p > cutoff {
							wantAcc, wantOK = p, false
							break
						}
					}
					got, ok, err := d.DistanceEarlyAbandon(q, c, cutoff)
					if err != nil || ok != wantOK || math.Float64bits(got) != math.Float64bits(math.Sqrt(wantAcc)) {
						t.Fatalf("DistanceEarlyAbandon(cutoff %v) = %v, %v (%v), reference %v, %v", cutoff, got, ok, err, math.Sqrt(wantAcc), wantOK)
					}
				}
			})
		}
	}
}

// TestSharedModelPathAllocatesNothing: with one model throughout, a warmed-up
// evaluator formats no string and takes no lock per timestamp — observable as
// zero allocations (the string-keyed lookup costs two Sprintf per point).
func TestSharedModelPathAllocatesNothing(t *testing.T) {
	qc := modelCases(128)["shared"]
	d := New(Options{})
	if _, err := d.Distance(qc[0], qc[1]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := d.DistanceEarlyAbandon(qc[0], qc[1], math.Inf(1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DistanceEarlyAbandon over one shared model: %v allocs per run, want 0", allocs)
	}
}

// TestConcurrentResolution drives one fresh evaluator from 8 goroutines at
// once, each over a different run structure, so the remembered pair is
// overwritten from all sides; every answer must still be the reference's.
// Run under -race.
func TestConcurrentResolution(t *testing.T) {
	cases := modelCases(64)
	ref := New(Options{})
	want := map[string]float64{}
	for name, qc := range cases {
		prefix := prefixRef(ref, qc[0], qc[1])
		want[name] = math.Sqrt(prefix[len(prefix)-1])
	}
	d := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for name, qc := range cases {
					got, err := d.Distance(qc[0], qc[1])
					if err != nil || math.Float64bits(got) != math.Float64bits(want[name]) {
						t.Errorf("%s: Distance = %v (%v), reference %v", name, got, err, want[name])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDistanceAlternatingModels is the resolver's worst case: the model
// pair changes at every timestamp, so every point pays the string-keyed
// lookup plus the remembered pair's replacement.
func BenchmarkDistanceAlternatingModels(b *testing.B) {
	qc := modelCases(128)["alternating"]
	d := New(Options{})
	if _, err := d.Distance(qc[0], qc[1]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Distance(qc[0], qc[1]); err != nil {
			b.Fatal(err)
		}
	}
}
