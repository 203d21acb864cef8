package stat

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// A tail percentile is reported only where at least ten samples lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // exactly ten beyond
		{999, 99, false}, // nine
		{100, 90, true},
		{99, 90, false},
		{20, 50, true},
		{19, 50, false},
		{10000, 99.9, true},
		{0, 50, false},
	} {
		if got := Supports(c.n, c.p); got != c.want {
			t.Errorf("Supports(%d, p%v) = %v (beyond %d), want %v", c.n, c.p, got, Beyond(c.n, c.p), c.want)
		}
	}
}

// Reference values from Python's statistics.quantiles(values, n=4), the
// function the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 7, 1, 9, 11}, [3]float64{3, 7, 10}},
	} {
		q1, med, q3 := Quartiles(c.values)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "parse", StartNS: 5, EndNS: 15},
		{ID: 3, Parent: 1, Name: "run", StartNS: 15, EndNS: 80},
		{ID: 4, Parent: 3, Name: "leg-a", StartNS: 20, EndNS: 60},
		{ID: 5, Parent: 3, Name: "leg-b", StartNS: 20, EndNS: 70},   // overlaps leg-a: counted once
		{ID: 6, Parent: 1, Name: "encode", StartNS: 90, EndNS: 120}, // clipped to the parent
	}
	want := map[int]int64{
		1: 100 - 10 - 65 - 10, // the three children cover 85
		2: 10,
		3: 65 - 50, // legs cover 20..70
		4: 40,
		5: 50,
		6: 30,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}
