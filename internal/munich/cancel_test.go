package munich

import (
	"errors"
	"math/rand"
	"testing"

	"uncertts/internal/qerr"
	"uncertts/internal/uncertain"
)

// cancelSeries builds a deterministic sample series long enough that every
// estimator takes multiple poll strides.
func cancelSeries(id int, n, perTS int) uncertain.SampleSeries {
	rng := rand.New(rand.NewSource(int64(id) + 5))
	samples := make([][]float64, n)
	for i := range samples {
		row := make([]float64, perTS)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		samples[i] = row
	}
	return uncertain.SampleSeries{Samples: samples, ID: id}
}

// TestProbabilityCutoffCancelStopsEveryEstimator asserts each estimator
// honours a closed done channel with a typed cancellation, and that a nil
// done computes exactly the uncancelled value.
func TestProbabilityCutoffCancelStopsEveryEstimator(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	cases := []struct {
		name  string
		n     int // series length
		opts  Options
		exact bool // whether n timestamps fit the combination cap
	}{
		{"convolution", 24, Options{Bins: 128}, false},
		{"exact", 8, Options{}, true},
		{"convolution, default bins", 24, Options{}, false},
	}
	for _, tc := range cases {
		x, y := cancelSeries(0, tc.n, 3), cancelSeries(1, tc.n, 3)
		if ExactFeasible(x, y) != tc.exact {
			t.Fatalf("%s: ExactFeasible = %v, want %v", tc.name, !tc.exact, tc.exact)
		}
		_, complete, err := ProbabilityCutoffCancel(x, y, 4, -1, tc.opts, closed)
		if !errors.Is(err, qerr.ErrCancelled) {
			t.Errorf("%s: err = %v, want ErrCancelled", tc.name, err)
		}
		if complete {
			t.Errorf("%s: cancelled computation reported complete", tc.name)
		}

		want, wantComplete, err := ProbabilityCutoff(x, y, 4, -1, tc.opts)
		if err != nil || !wantComplete {
			t.Fatalf("%s: uncancelled reference failed: %v", tc.name, err)
		}
		got, _, err := ProbabilityCutoffCancel(x, y, 4, -1, tc.opts, nil)
		if err != nil || got != want {
			t.Errorf("%s: nil done gave %v (%v), want %v", tc.name, got, err, want)
		}
	}
}
