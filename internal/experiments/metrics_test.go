package experiments

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestScoreKnownCases(t *testing.T) {
	cases := []struct {
		name           string
		result, truth  []int
		p, r, f1       float64
		tp, fpos, fneg int
	}{
		{"perfect", []int{1, 2, 3}, []int{1, 2, 3}, 1, 1, 1, 3, 0, 0},
		{"half precision", []int{1, 2, 3, 4}, []int{1, 2}, 0.5, 1, 2.0 / 3, 2, 2, 0},
		{"half recall", []int{1}, []int{1, 2}, 1, 0.5, 2.0 / 3, 1, 0, 1},
		{"disjoint", []int{1}, []int{2}, 0, 0, 0, 0, 1, 1},
		{"both empty", nil, nil, 1, 1, 1, 0, 0, 0},
		{"empty result", nil, []int{1}, 0, 0, 0, 0, 0, 1},
		{"empty truth", []int{1}, nil, 0, 0, 0, 0, 1, 0},
	}
	for _, c := range cases {
		m := Score(c.result, c.truth)
		if !almostEqual(m.Precision, c.p, 1e-12) || !almostEqual(m.Recall, c.r, 1e-12) || !almostEqual(m.F1, c.f1, 1e-12) {
			t.Errorf("%s: got p=%v r=%v f1=%v, want p=%v r=%v f1=%v",
				c.name, m.Precision, m.Recall, m.F1, c.p, c.r, c.f1)
		}
		if m.TruePositives != c.tp || m.FalsePositives != c.fpos || m.FalseNegatives != c.fneg {
			t.Errorf("%s: counts tp=%d fp=%d fn=%d, want %d/%d/%d",
				c.name, m.TruePositives, m.FalsePositives, m.FalseNegatives, c.tp, c.fpos, c.fneg)
		}
	}
}

func TestScoreDeduplicates(t *testing.T) {
	m := Score([]int{1, 1, 1}, []int{1})
	if m.F1 != 1 {
		t.Errorf("duplicate IDs should collapse: %+v", m)
	}
}

func TestScoreF1IsHarmonicMean(t *testing.T) {
	f := func(result, truth []int8) bool {
		r := make([]int, len(result))
		for i, v := range result {
			r[i] = int(v)
		}
		tr := make([]int, len(truth))
		for i, v := range truth {
			tr[i] = int(v)
		}
		m := Score(r, tr)
		if m.Precision+m.Recall == 0 {
			return m.F1 == 0 || (len(r) == 0 && len(tr) == 0)
		}
		want := 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		return almostEqual(m.F1, want, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAverageMetrics(t *testing.T) {
	ms := []Metrics{
		{Precision: 1, Recall: 0.5, F1: 2.0 / 3, TruePositives: 1},
		{Precision: 0.5, Recall: 1, F1: 2.0 / 3, TruePositives: 3},
	}
	avg := AverageMetrics(ms)
	if !almostEqual(avg.Precision, 0.75, 1e-12) || !almostEqual(avg.Recall, 0.75, 1e-12) {
		t.Errorf("avg = %+v", avg)
	}
	if avg.TruePositives != 4 {
		t.Errorf("counts should sum: %d", avg.TruePositives)
	}
	if got := AverageMetrics(nil); got.F1 != 0 {
		t.Errorf("empty average = %+v", got)
	}
}

func TestF1s(t *testing.T) {
	ms := []Metrics{{F1: 0.5}, {F1: 1}}
	f1 := F1s(ms)
	if len(f1) != 2 || f1[0] != 0.5 || f1[1] != 1 {
		t.Errorf("F1s = %v", f1)
	}
}
