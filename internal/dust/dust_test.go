package dust

import (
	"math"
	"testing"

	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func constSeries(id int, obs []float64, err stats.Dist) uncertain.PDFSeries {
	errs := make([]stats.Dist, len(obs))
	for i := range errs {
		errs[i] = err
	}
	return uncertain.PDFSeries{Observations: obs, Errors: errs, ID: id}
}

func TestDustReflexivity(t *testing.T) {
	d := New(Options{})
	for _, errDist := range []stats.Dist{
		stats.NewNormal(0, 0.5),
		stats.NewUniformByStdDev(1),
		stats.NewExponentialByStdDev(0.8),
	} {
		v, err := d.Value(1.3, 1.3, errDist, errDist)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(v, 0, 1e-6) {
			t.Errorf("%v: dust(x, x) = %v, want 0 (the constant k enforces reflexivity)", errDist, v)
		}
	}
}

func TestDustSymmetryInDelta(t *testing.T) {
	d := New(Options{})
	errDist := stats.NewNormal(0, 0.7)
	a, err := d.Value(0, 1.2, errDist, errDist)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Value(1.2, 0, errDist, errDist)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, b, 1e-9) {
		t.Errorf("dust should depend on |x-y| only: %v vs %v", a, b)
	}
}

func TestDustNormalErrorsProportionalToEuclidean(t *testing.T) {
	// Section 2.3: "DUST is equivalent to the Euclidean distance, in the
	// case where the error of the time series values follows the normal
	// distribution". dust(delta) = delta / (2 sigma) for equal normal
	// errors: phi is the N(0, 2 sigma^2) density, so
	// -log phi(d) + log phi(0) = d^2 / (4 sigma^2).
	sigma := 0.6
	d := New(Options{TailWeight: -1}) // disable tails: exact normal
	errDist := stats.NewNormal(0, sigma)
	for _, delta := range []float64{0.1, 0.5, 1, 2, 4} {
		got, err := d.Value(0, delta, errDist, errDist)
		if err != nil {
			t.Fatal(err)
		}
		want := delta / (2 * sigma)
		if !almostEqual(got, want, 1e-3*(1+want)) {
			t.Errorf("dust(%v) = %v, want %v", delta, got, want)
		}
	}
}

func TestDustMonotoneInDelta(t *testing.T) {
	d := New(Options{})
	for _, errDist := range []stats.Dist{
		stats.NewNormal(0, 0.5),
		stats.NewUniformByStdDev(0.5),
		stats.NewExponentialByStdDev(0.5),
	} {
		prev := -1.0
		for delta := 0.0; delta <= 6; delta += 0.2 {
			v, err := d.Value(0, delta, errDist, errDist)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-6 {
				t.Errorf("%v: dust not monotone at delta=%v: %v < %v", errDist, delta, v, prev)
			}
			prev = v
		}
	}
}

func TestUniformErrorTailWorkaround(t *testing.T) {
	// Without tails, uniform errors give phi = 0 beyond the support width
	// and dust saturates at the clamp. With tails, values stay finite and
	// informative.
	errDist := stats.NewUniformByStdDev(0.2) // support roughly [-0.35, 0.35]
	noTails := New(Options{TailWeight: -1})
	v, err := noTails.Value(0, 3, errDist, errDist)
	if err != nil {
		t.Fatal(err)
	}
	if v < MaxDust {
		t.Errorf("without tails, out-of-support dust should clamp to MaxDust, got %v", v)
	}
	withTails := New(Options{TailWeight: 1e-4})
	v2, err := withTails.Value(0, 3, errDist, errDist)
	if err != nil {
		t.Fatal(err)
	}
	if v2 >= MaxDust || math.IsInf(v2, 0) || v2 <= 0 {
		t.Errorf("with tails, dust should be finite and positive, got %v", v2)
	}
	// And still monotone past the support edge.
	v3, _ := withTails.Value(0, 4, errDist, errDist)
	if v3 < v2 {
		t.Errorf("tail region should stay monotone: dust(4)=%v < dust(3)=%v", v3, v2)
	}
}

func TestLookupTableMatchesExact(t *testing.T) {
	opts := Options{TableSize: 4096}
	tab := New(opts)
	exactOpts := opts
	exactOpts.Exact = true
	exact := New(exactOpts)
	for _, errDist := range []stats.Dist{
		stats.NewNormal(0, 0.5),
		stats.NewExponentialByStdDev(0.7),
		stats.NewUniformByStdDev(1.2),
	} {
		for _, delta := range []float64{0, 0.3, 1, 2.7, 5} {
			a, err := tab.Value(0, delta, errDist, errDist)
			if err != nil {
				t.Fatal(err)
			}
			b, err := exact.Value(0, delta, errDist, errDist)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(a, b, 1e-2*(1+b)) {
				t.Errorf("%v delta=%v: table=%v exact=%v", errDist, delta, a, b)
			}
		}
	}
}

func TestLookupBeyondTableDomain(t *testing.T) {
	// With the tail workaround disabled, equal normal errors follow the
	// exact linear law dust = delta / (2 sigma) even beyond the table
	// domain (the lookup falls back to direct evaluation there).
	d := New(Options{MaxDelta: 2, TailWeight: -1})
	errDist := stats.NewNormal(0, 0.5)
	v, err := d.Value(0, 10, errDist, errDist) // beyond MaxDelta
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 / (2 * 0.5)
	if !almostEqual(v, want, 1e-6*want) {
		t.Errorf("out-of-table dust = %v, want %v", v, want)
	}
	// With tails enabled the value must still be finite, positive, and
	// larger than the value at the table edge (monotonicity), but the tail
	// mixture deliberately compresses growth far out.
	dt := New(Options{MaxDelta: 2})
	far, err := dt.Value(0, 10, errDist, errDist)
	if err != nil {
		t.Fatal(err)
	}
	edge, err := dt.Value(0, 2, errDist, errDist)
	if err != nil {
		t.Fatal(err)
	}
	if !(far > edge) || math.IsInf(far, 0) || math.IsNaN(far) {
		t.Errorf("tailed out-of-table dust = %v (edge %v), want finite and larger", far, edge)
	}
}

func TestTablesAreReused(t *testing.T) {
	freshMemo(t)
	d := New(Options{})
	errDist := stats.NewNormal(0, 0.5)
	for i := 0; i < 10; i++ {
		if _, err := d.Value(0, float64(i), errDist, errDist); err != nil {
			t.Fatal(err)
		}
	}
	if tableCount() != 1 {
		t.Errorf("same distribution pair should share one table, got %d", tableCount())
	}
	other := stats.NewNormal(0, 1.5)
	if _, err := d.Value(0, 1, other, other); err != nil {
		t.Fatal(err)
	}
	if tableCount() != 2 {
		t.Errorf("distinct parameters should get a second table, got %d", tableCount())
	}
	// Equal parameters in a fresh value share the existing table.
	same := stats.NewNormal(0, 0.5)
	if _, err := d.Value(0, 1, same, same); err != nil {
		t.Fatal(err)
	}
	if tableCount() != 2 {
		t.Errorf("equal-parameter distributions must share tables, got %d", tableCount())
	}
}

func TestDistanceSeries(t *testing.T) {
	d := New(Options{TailWeight: -1})
	errDist := stats.NewNormal(0, 0.5)
	q := constSeries(0, []float64{0, 0, 0}, errDist)
	c := constSeries(1, []float64{1, 1, 1}, errDist)
	got, err := d.Distance(q, c)
	if err != nil {
		t.Fatal(err)
	}
	// Each timestamp contributes dust = 1/(2*0.5) = 1; L2 over 3 gives sqrt(3).
	if !almostEqual(got, math.Sqrt(3), 1e-3) {
		t.Errorf("series distance = %v, want %v", got, math.Sqrt(3))
	}
	// Distance to itself is 0.
	self, err := d.Distance(q, q)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(self, 0, 1e-6) {
		t.Errorf("self distance = %v", self)
	}
}

func TestDistanceValidation(t *testing.T) {
	d := New(Options{})
	errDist := stats.NewNormal(0, 1)
	q := constSeries(0, []float64{1, 2}, errDist)
	if _, err := d.Distance(q, constSeries(1, []float64{1}, errDist)); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := d.Distance(q, uncertain.PDFSeries{}); err == nil {
		t.Error("invalid series should error")
	}
	if _, err := d.Value(0, 1, nil, errDist); err == nil {
		t.Error("nil error distribution should error")
	}
}

func TestDistanceRankingTracksEuclideanForNormalErrors(t *testing.T) {
	// With constant normal errors, DUST is a monotone transform of
	// Euclidean, so rankings must agree.
	d := New(Options{})
	errDist := stats.NewNormal(0, 0.4)
	q := constSeries(0, []float64{0, 0, 0, 0}, errDist)
	near := constSeries(1, []float64{0.1, -0.2, 0.1, 0}, errDist)
	mid := constSeries(2, []float64{1, 1, -1, 0.5}, errDist)
	far := constSeries(3, []float64{3, -3, 2, 2}, errDist)
	dn, _ := d.Distance(q, near)
	dm, _ := d.Distance(q, mid)
	df, _ := d.Distance(q, far)
	if !(dn < dm && dm < df) {
		t.Errorf("ranking broken: near=%v mid=%v far=%v", dn, dm, df)
	}
}

func TestMixedErrorDistributionsPerTimestamp(t *testing.T) {
	// Different error distributions at different timestamps must be
	// honoured: a high-sigma timestamp contributes less dust for the same
	// observed difference.
	d := New(Options{})
	lo := stats.NewNormal(0, 0.2)
	hi := stats.NewNormal(0, 2.0)
	vLo, err := d.Value(0, 1, lo, lo)
	if err != nil {
		t.Fatal(err)
	}
	vHi, err := d.Value(0, 1, hi, hi)
	if err != nil {
		t.Fatal(err)
	}
	if vLo <= vHi {
		t.Errorf("same delta must count more under small error: lo=%v hi=%v", vLo, vHi)
	}
}

func TestAsymmetricErrorPair(t *testing.T) {
	// Different error distributions on the two sides exercise the general
	// integration path.
	d := New(Options{})
	ex := stats.NewNormal(0, 0.3)
	ey := stats.NewExponentialByStdDev(0.6)
	v0, err := d.Value(0, 0, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	if v0 < 0 || math.IsNaN(v0) {
		t.Errorf("dust(0) = %v", v0)
	}
	v1, err := d.Value(0, 1.5, ex, ey)
	if err != nil {
		t.Fatal(err)
	}
	if v1 <= v0 {
		t.Errorf("dust should grow with delta: %v <= %v", v1, v0)
	}
}

func TestExponentialClosedFormAgreement(t *testing.T) {
	// For equal exponential errors with rate l = 1/scale, the correlation
	// integral has the closed form (l/2) exp(-l |delta|), so
	// dust^2 = l * |delta|. Verify the numerical path against it.
	scale := 0.8
	d := New(Options{TailWeight: -1, Exact: true})
	errDist := stats.NewExponentialByStdDev(scale)
	l := 1 / scale
	for _, delta := range []float64{0.2, 0.5, 1, 2} {
		got, err := d.Value(0, delta, errDist, errDist)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Sqrt(l * delta)
		if !almostEqual(got, want, 2e-2*(1+want)) {
			t.Errorf("delta=%v: dust=%v, closed form %v", delta, got, want)
		}
	}
}

func TestDistanceEarlyAbandon(t *testing.T) {
	d := New(Options{})
	errDist := stats.NewNormal(0, 0.5)
	q := constSeries(0, []float64{0, 1, 2, 3, 2, 1, 0, -1}, errDist)
	c := constSeries(1, []float64{1, 0, 3, 2, 1, 2, -1, 0}, errDist)

	want, err := d.Distance(q, c)
	if err != nil {
		t.Fatal(err)
	}
	got, complete, err := d.DistanceEarlyAbandon(q, c, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !complete || got != want {
		t.Fatalf("cutoff=+Inf: got (%v, %v), want (%v, true)", got, complete, want)
	}
	// A cutoff a hair above the squared distance completes (want*want itself
	// can round below the true accumulated sum); half of it abandons with a
	// partial value already past the cutoff.
	if _, complete, err := d.DistanceEarlyAbandon(q, c, want*want*(1+1e-12)); err != nil || !complete {
		t.Fatalf("cutoff just above dist^2 should complete (err=%v)", err)
	}
	cut := want * want / 2
	got, complete, err = d.DistanceEarlyAbandon(q, c, cut)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Fatal("cutoff below dist^2 should abandon")
	}
	if got*got <= cut {
		t.Fatalf("abandoned partial %v should exceed cutoff %v", got*got, cut)
	}

	if _, _, err := d.DistanceEarlyAbandon(q, constSeries(2, []float64{1}, errDist), 1); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, _, err := d.DistanceEarlyAbandon(q, uncertain.PDFSeries{}, 1); err == nil {
		t.Fatal("want validation error")
	}
}

// TestMemoIsCapped poses 2000 ad-hoc query sigmas against one corpus error
// model, as 2000 served DUST queries would: the memo stops at maxTables, and
// a sigma whose table was evicted gets the same distance as one whose table
// the memo still holds.
func TestMemoIsCapped(t *testing.T) {
	const n = 2000
	opts := Options{TableSize: 64} // the cap counts tables, not points
	c := constSeries(1, []float64{0.3, -1.2, 2.5, 0.8}, stats.NewNormal(0, 0.6))
	distances := func(order func(i int) int) []float64 {
		freshMemo(t)
		d := New(opts)
		out := make([]float64, n)
		for k := 0; k < n; k++ {
			i := order(k)
			q := constSeries(0, []float64{0, 0.4, 1.1, -0.7}, stats.NewNormal(0, 0.1+float64(i)/1000))
			v, err := d.Distance(q, c)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		if got := tableCount(); got != maxTables {
			t.Errorf("%d distinct sigmas left %d tables in the memo, want the cap %d", n, got, maxTables)
		}
		return out
	}
	forward := distances(func(k int) int { return k })
	backward := distances(func(k int) int { return n - 1 - k }) // keeps the other end
	for i := range forward {
		if math.Float64bits(forward[i]) != math.Float64bits(backward[i]) {
			t.Fatalf("sigma #%d: distance %v with its table evicted, %v with it memoized", i, forward[i], backward[i])
		}
	}
}

// TestMemoEvictsTheOldest fills the memo to its cap, then alternates two new
// query sigmas, as two ad-hoc DUST queries on one corpus do: each new pair's
// table is built once (every later call gets the same table back) and the
// two oldest tables make room for them.
func TestMemoEvictsTheOldest(t *testing.T) {
	freshMemo(t)
	d := New(Options{TableSize: 64})
	corpusErr := stats.NewNormal(0, 0.6)
	table := func(i int) *phiTable { return d.tableByString(stats.NewNormal(0, 0.1+float64(i)/1000), corpusErr) }
	oldest := table(0)
	for i := 1; i < maxTables; i++ {
		table(i)
	}
	a, b := table(maxTables), table(maxTables+1)
	for k := 0; k < 50; k++ {
		if table(maxTables) != a || table(maxTables+1) != b {
			t.Fatalf("call %d: a table of the two alternating pairs was built again", k)
		}
	}
	if got := tableCount(); got != maxTables {
		t.Fatalf("the memo holds %d tables, want the cap %d", got, maxTables)
	}
	if table(0) == oldest {
		t.Fatal("the oldest table was kept past the cap")
	}
}

// freshMemo empties the process-wide table memo for one test and puts the
// old one back when the test ends.
func freshMemo(t *testing.T) {
	globalTableMu.Lock()
	saved, savedOrder := globalTables, globalOrder
	globalTables, globalOrder = map[tableKey]*phiTable{}, nil
	globalTableMu.Unlock()
	t.Cleanup(func() {
		globalTableMu.Lock()
		globalTables, globalOrder = saved, savedOrder
		globalTableMu.Unlock()
	})
}

// tableCount reports how many phi tables the memo holds.
func tableCount() int {
	globalTableMu.Lock()
	defer globalTableMu.Unlock()
	return len(globalTables)
}
