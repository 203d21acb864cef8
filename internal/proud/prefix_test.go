package proud

import (
	"math"
	"testing"

	"uncertts/internal/stats"
)

// prefixPair builds two observation vectors with a controllable gap level.
func prefixPair(rng interface{ NormFloat64() float64 }, n int, gap float64) (q, c []float64) {
	q = make([]float64, n)
	c = make([]float64, n)
	for i := 0; i < n; i++ {
		q[i] = rng.NormFloat64()
		c[i] = q[i] + gap*rng.NormFloat64()
	}
	return q, c
}

// accumulate replays Distance's accumulation over the first t timestamps,
// and the prefix energy UnseenGap takes.
func accumulate(q, c []float64, varD float64, t int) (mean, variance, seen float64) {
	for i := 0; i < t; i++ {
		mu := q[i] - c[i]
		mean += mu*mu + varD
		variance += 2*varD*varD + 4*varD*mu*mu
		seen += q[i]*q[i] + c[i]*c[i]
	}
	return mean, variance, seen
}

// TestPrefixDecideAgreesWithFullDecision: whenever PrefixDecide claims a
// certain outcome at any prefix, it must equal the decision of the
// completed accumulation — across gap levels, eps, and both epsLimit
// signs — and a pair far outside eps is decided before its end.
func TestPrefixDecideAgreesWithFullDecision(t *testing.T) {
	rng := stats.NewRand(11)
	const n = 64
	sigma := 0.4
	varD := sigma*sigma + sigma*sigma
	for _, gap := range []float64{0, 0.3, 1.5, 6} {
		for trial := 0; trial < 20; trial++ {
			q, c := prefixPair(rng, n, gap)
			energy := Energy(q) + Energy(c)
			for _, tau := range []float64{0.05, 0.5, 0.95} {
				limit, err := EpsLimit(tau)
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0.5, 3, 8, 20} {
					fullMean, fullVar, _ := accumulate(q, c, varD, n)
					full := DistanceDist{Mean: fullMean, Variance: fullVar}
					want := Reject
					if full.EpsNorm(eps) >= limit {
						want = Accept
					}
					decidedAt := -1
					for pre := 1; pre < n; pre++ {
						mean, variance, seen := accumulate(q, c, varD, pre)
						got := PrefixDecide(mean, variance, n-pre, varD, UnseenGap(energy, seen, n), eps, limit)
						if got == Undecided {
							continue
						}
						if got != want {
							t.Fatalf("gap=%g tau=%g eps=%g prefix=%d: PrefixDecide = %v, full decision = %v",
								gap, tau, eps, pre, got, want)
						}
						if decidedAt < 0 {
							decidedAt = pre
						}
					}
					if gap == 6 && eps == 0.5 && decidedAt < 0 {
						t.Errorf("tau=%g: a pair far outside eps was not decided before its end", tau)
					}
				}
			}
		}
	}
}

// TestPrefixDecideUnboundedGap: with maxGapEnergy = +Inf only the lower
// bounds remain — a prefix never accepts, never rejects when epsLimit < 0,
// and agrees with the completed decision whenever it does decide.
func TestPrefixDecideUnboundedGap(t *testing.T) {
	rng := stats.NewRand(13)
	const n = 32
	sigma := 0.5
	varD := sigma*sigma + sigma*sigma
	rejects := 0
	for _, gap := range []float64{0.2, 2} {
		q, c := prefixPair(rng, n, gap)
		fullMean, fullVar, _ := accumulate(q, c, varD, n)
		full := DistanceDist{Mean: fullMean, Variance: fullVar}
		for _, tau := range []float64{0.1, 0.7} {
			limit, err := EpsLimit(tau)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range []float64{1, 5, 15} {
				want := Reject
				if full.EpsNorm(eps) >= limit {
					want = Accept
				}
				for pre := 1; pre < n; pre++ {
					mean, variance, _ := accumulate(q, c, varD, pre)
					got := PrefixDecide(mean, variance, n-pre, varD, math.Inf(1), eps, limit)
					switch {
					case got == Accept:
						t.Fatalf("gap=%g tau=%g eps=%g: certain accept with unbounded gap energy at prefix %d", gap, tau, eps, pre)
					case got == Reject && limit < 0:
						t.Fatalf("gap=%g tau=%g eps=%g: certain reject with unbounded gap energy and epsLimit < 0 at prefix %d", gap, tau, eps, pre)
					case got != Undecided && got != want:
						t.Fatalf("gap=%g tau=%g eps=%g prefix=%d: PrefixDecide(inf gap) = %v, full decision = %v", gap, tau, eps, pre, got, want)
					case got == Reject:
						rejects++
					}
				}
			}
		}
	}
	if rejects == 0 {
		t.Error("the lower bounds alone never rejected: the table no longer exercises them")
	}
}

// TestProbWithinUpperBoundsExactProbability: the prefix probability bound
// must dominate the completed ProbWithin at every prefix.
func TestProbWithinUpperBoundsExactProbability(t *testing.T) {
	rng := stats.NewRand(17)
	const n = 48
	sigma := 0.3
	varD := sigma*sigma + sigma*sigma
	for _, gap := range []float64{0, 0.5, 3} {
		for trial := 0; trial < 20; trial++ {
			q, c := prefixPair(rng, n, gap)
			energy := Energy(q) + Energy(c)
			for _, eps := range []float64{1, 4, 10} {
				fullMean, fullVar, _ := accumulate(q, c, varD, n)
				exact := DistanceDist{Mean: fullMean, Variance: fullVar}.ProbWithin(eps)
				for pre := 1; pre <= n; pre++ {
					mean, variance, seen := accumulate(q, c, varD, pre)
					up := ProbWithinUpper(mean, variance, n-pre, varD, UnseenGap(energy, seen, n), eps)
					if up < exact-1e-12 {
						t.Fatalf("gap=%g eps=%g prefix=%d: upper bound %v below exact probability %v",
							gap, eps, pre, up, exact)
					}
				}
			}
		}
	}
}

func TestEnergy(t *testing.T) {
	if got := Energy([]float64{1, -2, 3}); got != 14 {
		t.Errorf("Energy = %v, want 14", got)
	}
	if got := Energy(nil); got != 0 {
		t.Errorf("Energy(nil) = %v, want 0", got)
	}
}

func TestDecisionString(t *testing.T) {
	if Accept.String() != "accept" || Reject.String() != "reject" || Undecided.String() != "undecided" {
		t.Error("Decision.String broken")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision should stringify")
	}
}
