package munich

import (
	"testing"

	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// envelopeCollection builds a collection of noisy sample series around
// distinct base levels.
func envelopeCollection(n, length, samples int) []uncertain.SampleSeries {
	rng := stats.NewRand(19)
	out := make([]uncertain.SampleSeries, n)
	for id := 0; id < n; id++ {
		base := float64(id) * 0.5
		rows := make([][]float64, length)
		for i := range rows {
			row := make([]float64, samples)
			for j := range row {
				row[j] = base + rng.NormFloat64()*0.1
			}
			rows[i] = row
		}
		out[id] = uncertain.SampleSeries{Samples: rows, ID: id}
	}
	return out
}

// TestEnvelopeLowerBoundNoFalseDismissals is the filter step's soundness:
// at every segment count the envelope bound stays at or below the exact
// bounding-interval lower bound (envelopes are looser than the
// per-timestamp intervals), so a filter comparing it with eps never drops
// a candidate the exact prune would keep — and it still prunes the distant
// ones.
func TestEnvelopeLowerBoundNoFalseDismissals(t *testing.T) {
	const length = 8
	coll := envelopeCollection(12, length, 3)
	for _, segments := range []int{1, 3, 4, length} {
		spans := SegmentSpans(length, segments)
		envs := make([]Envelope, len(coll))
		for i, s := range coll {
			envs[i] = BuildEnvelope(s, segments)
		}
		pruned := 0
		for qi, q := range coll {
			for ci, c := range coll {
				lo, _, err := BoundingIntervals(q).Bounds(c)
				if err != nil {
					t.Fatal(err)
				}
				lb := EnvelopeLowerBound(envs[qi], envs[ci], spans)
				if lb > lo+1e-12 {
					t.Errorf("segments=%d: envelope bound %v between %d and %d exceeds the exact lower bound %v", segments, lb, qi, ci, lo)
				}
				if lb > 0.8 {
					pruned++
				}
			}
		}
		if pruned == 0 {
			t.Errorf("segments=%d: the envelope bound separates no pair at eps=0.8", segments)
		}
	}
}

// TestSegmentClamping: a segment count resolves to [1, length], for the
// spans and for the envelopes built over them alike.
func TestSegmentClamping(t *testing.T) {
	s := envelopeCollection(1, 5, 2)[0]
	for _, tc := range []struct{ ask, want int }{{0, 1}, {-3, 1}, {3, 3}, {5, 5}, {99, 5}} {
		if got := ClampSegments(5, tc.ask); got != tc.want {
			t.Errorf("ClampSegments(5, %d) = %d, want %d", tc.ask, got, tc.want)
		}
		if got := len(SegmentSpans(5, tc.ask)); got != tc.want {
			t.Errorf("SegmentSpans(5, %d) has %d spans, want %d", tc.ask, got, tc.want)
		}
		if e := BuildEnvelope(s, tc.ask); len(e.Lo) != tc.want || len(e.Hi) != tc.want {
			t.Errorf("BuildEnvelope(_, %d) has %d/%d segments, want %d", tc.ask, len(e.Lo), len(e.Hi), tc.want)
		}
	}
}

// TestEnvelopeLowerBoundDoesNotAllocate guards the per-candidate cost of the
// filter walk: with the spans precomputed, the bound is arithmetic over two
// envelopes (it was one [][2]int per candidate before the spans were
// hoisted out).
func TestEnvelopeLowerBoundDoesNotAllocate(t *testing.T) {
	coll := envelopeCollection(2, 64, 5)
	spans := SegmentSpans(64, 8)
	a, b := BuildEnvelope(coll[0], 8), BuildEnvelope(coll[1], 8)
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { sink += EnvelopeLowerBound(a, b, spans) }); allocs != 0 {
		t.Errorf("EnvelopeLowerBound allocated %v times per call, want 0", allocs)
	}
	_ = sink
}
