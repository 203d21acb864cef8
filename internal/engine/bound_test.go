package engine

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/query"
)

// TestStatsJSONRoundTrip pins the wire-stable JSON shape of engine.Stats:
// every counter round-trips through explicit snake_case keys, so shard
// responses can carry stats across processes without drift.
func TestStatsJSONRoundTrip(t *testing.T) {
	in := Stats{
		Candidates:           1,
		Completed:            2,
		AbandonedEarly:       3,
		PrunedByEnvelope:     4,
		ResolvedByBounds:     5,
		ResolvedEarly:        6,
		BucketsVisited:       7,
		BucketsPruned:        8,
		SeriesSkippedByIndex: 9,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed the stats: %+v != %+v", out, in)
	}

	var keys map[string]int64
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"abandoned_early", "buckets_pruned", "buckets_visited", "candidates",
		"completed", "pruned_by_envelope", "resolved_by_bounds",
		"resolved_early", "series_skipped_by_index",
	}
	got := make([]string, 0, len(keys))
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats JSON keys drifted:\n got %v\nwant %v", got, want)
	}
	if n := reflect.TypeOf(Stats{}).NumField(); n != len(want) {
		t.Fatalf("Stats has %d fields but the wire shape pins %d — tag the new field and extend this test", n, len(want))
	}
}

// shardCorpora splits the deterministic test series into nShards corpora by
// round-robin over the global ID (the cluster's ShardFor is a hash, but any
// disjoint cover works for the engine-level argument), inserting with
// explicit IDs so each shard entry keeps its global identity.
func shardCorpora(t *testing.T, series, length, nShards int) []*corpus.Corpus {
	t.Helper()
	out := make([]*corpus.Corpus, nShards)
	for s := range out {
		out[s] = corpus.New(corpus.Config{ReportedSigma: 0.3, Segments: 4})
		var batch []corpus.Series
		var ids []int
		for id := 0; id < series; id++ {
			if id%nShards != s {
				continue
			}
			batch = append(batch, corpusSeries(length, int64(id)))
			ids = append(ids, id)
		}
		if _, err := out[s].ApplyAt(batch, ids, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSharedBoundShardParity runs the same top-k query through per-shard
// engines sharing one injected Bound and checks that the merged answer is
// bit-identical to a single engine over the whole corpus — for every
// measure, kind and shard count the bound applies to.
func TestSharedBoundShardParity(t *testing.T) {
	const nSeries, length, k, eps = 30, 32, 5, 2.5
	whole := testCorpus(t, nSeries, length)
	adhoc := adhocQueryFor(length)
	for _, opts := range allMeasureOptions() {
		opts := opts
		single, err := NewFromSnapshot(whole.Snapshot(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, nShards := range []int{1, 2, 4} {
			shards := shardCorpora(t, nSeries, length, nShards)
			if opts.Measure.Probabilistic() {
				ref, err := single.Run(context.Background(), Request{
					Measure: opts.Measure, Kind: KindProbTopK, AdHoc: &adhoc, K: k, Eps: eps,
				})
				if err != nil {
					t.Fatal(err)
				}
				pb := NewProbBound()
				var merged []ProbMatch
				for _, sc := range shards {
					e, err := NewFromSnapshot(sc.Snapshot(), opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run(context.Background(), Request{
						Measure: opts.Measure, Kind: KindProbTopK, AdHoc: &adhoc, K: k, Eps: eps, ProbBound: pb,
					})
					if err != nil {
						t.Fatal(err)
					}
					snap := sc.Snapshot()
					for _, m := range res.Matches {
						merged = append(merged, ProbMatch{ID: snap.IDAt(m.ID), Prob: m.Prob})
					}
				}
				sort.Slice(merged, func(i, j int) bool {
					if merged[i].Prob != merged[j].Prob {
						return merged[i].Prob > merged[j].Prob
					}
					return merged[i].ID < merged[j].ID
				})
				if len(merged) > k {
					merged = merged[:k]
				}
				if !reflect.DeepEqual(merged, ref.Matches) {
					t.Errorf("%v probtopk across %d shards diverged:\n got %v\nwant %v", opts.Measure, nShards, merged, ref.Matches)
				}
				continue
			}
			ref, err := single.Run(context.Background(), Request{
				Measure: opts.Measure, Kind: KindTopK, AdHoc: &adhoc, K: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			bnd := NewBound()
			var merged []query.Neighbor
			for _, sc := range shards {
				e, err := NewFromSnapshot(sc.Snapshot(), opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run(context.Background(), Request{
					Measure: opts.Measure, Kind: KindTopK, AdHoc: &adhoc, K: k, Bound: bnd,
				})
				if err != nil {
					t.Fatal(err)
				}
				snap := sc.Snapshot()
				for _, n := range res.Neighbors {
					merged = append(merged, query.Neighbor{ID: snap.IDAt(n.ID), Distance: n.Distance})
				}
			}
			sort.Slice(merged, func(i, j int) bool {
				if merged[i].Distance != merged[j].Distance {
					return merged[i].Distance < merged[j].Distance
				}
				return merged[i].ID < merged[j].ID
			})
			if len(merged) > k {
				merged = merged[:k]
			}
			if !reflect.DeepEqual(merged, ref.Neighbors) {
				t.Errorf("%v topk across %d shards diverged:\n got %v\nwant %v", opts.Measure, nShards, merged, ref.Neighbors)
			}
		}
	}
}

// TestSharedBoundTightensPruning runs two shard engines sequentially at one
// worker — so the arithmetic is deterministic — once with fresh private
// bounds and once sharing an injected Bound. The shared arm must complete
// strictly fewer full distance computations: the first shard's k-th best
// seeds the second shard's cut from candidate zero.
func TestSharedBoundTightensPruning(t *testing.T) {
	const nSeries, length, k = 80, 48, 3
	shards := shardCorpora(t, nSeries, length, 2)
	adhoc := adhocQueryFor(length)
	opts := Options{Measure: MeasureEuclidean, Workers: 1}

	run := func(shared bool) int64 {
		var bnd *Bound
		if shared {
			bnd = NewBound()
		}
		var completed int64
		for _, sc := range shards {
			e, err := NewFromSnapshot(sc.Snapshot(), opts)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Kind: KindTopK, AdHoc: &adhoc, K: k, Workers: 1, Bound: bnd}
			if _, err := e.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			completed += e.Stats().Completed
		}
		return completed
	}

	private, propagated := run(false), run(true)
	if propagated >= private {
		t.Fatalf("bound propagation did not tighten pruning: %d completed with a shared bound, %d without", propagated, private)
	}
}

// TestBoundWireValues pins the exported faces of the one cut: what Bound and
// ProbBound report is what cluster nodes put on the wire, so it must not
// depend on how the cut stores it (squared distances; negated
// probabilities). After a scan the injected bound holds exactly the figure
// the answer's k-th entry implies.
func TestBoundWireValues(t *testing.T) {
	b := NewBound()
	if !math.IsInf(b.Squared(), 1) {
		t.Errorf("fresh Bound = %v, want +Inf", b.Squared())
	}
	b.LowerSquared(9)
	b.LowerSquared(16) // looser: ignored
	if b.Squared() != 9 {
		t.Errorf("LowerSquared is not monotone: %v", b.Squared())
	}
	b.ObserveKth(2)
	if b.Squared() != ulpUp(4) {
		t.Errorf("ObserveKth(2) published %v, want the ulpUp-inflated square %v", b.Squared(), ulpUp(4))
	}

	pb := NewProbBound()
	if !math.IsInf(pb.Value(), -1) {
		t.Errorf("fresh ProbBound = %v, want -Inf", pb.Value())
	}
	pb.Raise(0)
	if v := pb.Value(); v != 0 || math.Signbit(v) {
		t.Errorf("Raise(0) reads back as %v (signbit %v), want +0", v, math.Signbit(v))
	}
	pb.Raise(0.3)
	pb.Raise(0.2) // looser: ignored
	if pb.Value() != 0.3 {
		t.Errorf("Raise is not monotone: %v", pb.Value())
	}
	pb.Raise(0.5)
	if pb.Value() != 0.5 {
		t.Errorf("Raise(0.5) after 0.3 reads %v", pb.Value())
	}

	const k = 4
	snap := testCorpus(t, 30, 32).Snapshot()
	adhoc := adhocQueryFor(32)
	bnd := NewBound()
	nn := mustRun(t, newEngine(t, snap, Options{Measure: MeasureEuclidean, ShardSize: 5}),
		Request{Kind: KindTopK, AdHoc: &adhoc, K: k, Bound: bnd}).Neighbors
	if want := ulpUp(nn[k-1].Distance * nn[k-1].Distance); math.Float64bits(bnd.Squared()) != math.Float64bits(want) {
		t.Errorf("after the scan Bound.Squared() = %v, want %v from the k-th distance %v", bnd.Squared(), want, nn[k-1].Distance)
	}
	pbnd := NewProbBound()
	ms := mustRun(t, newEngine(t, snap, Options{Measure: MeasurePROUD, ShardSize: 5}),
		Request{Kind: KindProbTopK, AdHoc: &adhoc, K: k, Eps: 2.5, ProbBound: pbnd}).Matches
	if want := ms[k-1].Prob; math.Float64bits(pbnd.Value()) != math.Float64bits(want) {
		t.Errorf("after the scan ProbBound.Value() = %v, want the k-th probability %v", pbnd.Value(), want)
	}
}
