package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"uncertts/internal/engine"
	"uncertts/internal/server"
)

// sameAnswer compares two answers entry by entry, floats by their bits.
func sameAnswer(a, b server.QueryResponse) error {
	if a.Total != b.Total || len(a.Neighbors) != len(b.Neighbors) || len(a.IDs) != len(b.IDs) || len(a.Matches) != len(b.Matches) {
		return fmt.Errorf("shapes differ: total %d/%d, %d/%d neighbors, %d/%d ids, %d/%d matches",
			a.Total, b.Total, len(a.Neighbors), len(b.Neighbors), len(a.IDs), len(b.IDs), len(a.Matches), len(b.Matches))
	}
	for i := range a.Neighbors {
		if a.Neighbors[i].ID != b.Neighbors[i].ID || math.Float64bits(a.Neighbors[i].Distance) != math.Float64bits(b.Neighbors[i].Distance) {
			return fmt.Errorf("neighbor %d: %+v vs %+v", i, a.Neighbors[i], b.Neighbors[i])
		}
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return fmt.Errorf("id %d: %d vs %d", i, a.IDs[i], b.IDs[i])
		}
	}
	for i := range a.Matches {
		if a.Matches[i].ID != b.Matches[i].ID || math.Float64bits(a.Matches[i].Prob) != math.Float64bits(b.Matches[i].Prob) {
			return fmt.Errorf("match %d: %+v vs %+v", i, a.Matches[i], b.Matches[i])
		}
	}
	return nil
}

// scanAnswer is the reference answer to req: the linear scan of an
// engine.Options.NoIndex engine (no tier 0) over the corpus of srv, with
// positions rendered as stable IDs.
func scanAnswer(t *testing.T, srv *server.Server, req server.QueryRequest) server.QueryResponse {
	t.Helper()
	snap := srv.Corpus().Snapshot()
	m, err := engine.ParseMeasure(req.Measure)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := engine.ParseKind(req.Type)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewFromSnapshot(snap, engine.Options{Measure: m, NoIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ereq := engine.Request{Measure: m, Kind: kind, K: req.K, Eps: req.Eps, Tau: req.Tau, Workers: req.Workers}
	if req.ID != nil {
		pos, ok := snap.PosOf(*req.ID)
		if !ok {
			t.Fatalf("no series with ID %d", *req.ID)
		}
		ereq.Index = &pos
	} else {
		ereq.AdHoc = &engine.Query{Values: req.Series.Values, Sigma: req.Series.Sigma, Samples: req.Series.Samples}
	}
	res, err := e.Run(context.Background(), ereq)
	if err != nil {
		t.Fatalf("%s/%s NoIndex scan: %v", req.Measure, req.Type, err)
	}
	out := server.QueryResponse{Total: res.Total}
	for _, n := range res.Neighbors {
		out.Neighbors = append(out.Neighbors, server.NeighborJSON{ID: snap.IDAt(n.ID), Distance: n.Distance})
	}
	for _, pm := range res.Matches {
		out.Matches = append(out.Matches, server.MatchJSON{ID: snap.IDAt(pm.ID), Prob: pm.Prob})
	}
	for _, pos := range res.IDs {
		out.IDs = append(out.IDs, snap.IDAt(pos))
	}
	return out
}

// TestTier0DifferentialParity runs every lock-step measure x kind, by
// resident id and ad hoc, with one and four workers, through in-process
// clusters of one and two shards with tier 0 live (every shard is past the
// engine's default index threshold, which the server does not expose), and
// holds each answer to the NoIndex scan of a single corpus that holds the
// same series in the same order (so under the same stable IDs) — over dense
// snapshots and again after interior deletes left the shards reading their
// arenas through the row index. Answers must agree bit for bit, and the
// tier-0 side's accounting must stay coherent: every series but the query
// itself is either a candidate or skipped by the index, and no bucket of the
// tree is touched.
func TestTier0DifferentialParity(t *testing.T) {
	const nSeries, length = 2400, 40 // ragged coarse spans: 40 = 16 x 2.5
	ctx := context.Background()
	cases := []server.QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 10},
		{Measure: "euclidean", Type: "range"},
		{Measure: "uma", Type: "topk", K: 10},
		{Measure: "uma", Type: "range"},
		{Measure: "uema", Type: "topk", K: 10},
		{Measure: "uema", Type: "range"},
		{Measure: "proud", Type: "probtopk", K: 10},
		{Measure: "proud", Type: "probrange", Tau: 0.1},
	}
	for _, nShards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", nShards), func(t *testing.T) {
			on, onServers := localCluster(t, nShards, Options{})
			ingest(t, on, nSeries, length)
			single := singleNode(t, nSeries, length)
			for _, srv := range onServers {
				if n := srv.Corpus().Len(); n < 1024 {
					t.Fatalf("a shard holds %d series, under the index threshold: tier 0 would not engage", n)
				}
			}

			// eps: the 10th-nearest Euclidean distance of the probe query,
			// so the range kinds return about ten series.
			probe := 7
			nn := scanAnswer(t, single, server.QueryRequest{Measure: "euclidean", Type: "topk", K: 10, ID: &probe})
			eps := nn.Neighbors[len(nn.Neighbors)-1].Distance

			stats := func(measure string) engine.Stats {
				st, err := on.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				m, _ := engine.ParseMeasure(measure)
				return st.Measures[m.String()].Stats
			}
			run := func(phase string, resident int) {
				var skipped int64
				for _, base := range cases {
					for _, target := range []string{"id", "adhoc"} {
						for _, workers := range []int{1, 4} {
							req := base
							req.Workers = workers
							if req.Type != "topk" {
								req.Eps = eps
							}
							self := 0
							if target == "id" {
								req.ID, self = &probe, 1
							} else {
								q := testSeries(length, 9001)
								req.Series = &q
							}
							name := fmt.Sprintf("%s %s/%s %s w=%d", phase, req.Measure, req.Type, target, workers)
							before := stats(req.Measure)
							got, err := on.Query(ctx, req)
							if err != nil {
								t.Fatalf("%s: tier 0: %v", name, err)
							}
							after := stats(req.Measure)
							if err := sameAnswer(got.QueryResponse, scanAnswer(t, single, req)); err != nil {
								t.Errorf("%s: tier 0 answer differs from NoIndex: %v", name, err)
							}
							if seen := (after.Candidates - before.Candidates) + (after.SeriesSkippedByIndex - before.SeriesSkippedByIndex); seen != int64(resident-self) {
								t.Errorf("%s: candidates + skipped = %d, want %d", name, seen, resident-self)
							}
							if after.BucketsVisited != 0 || after.BucketsPruned != 0 {
								t.Errorf("%s: %d buckets visited, %d pruned by a lock-step measure", name, after.BucketsVisited, after.BucketsPruned)
							}
							skipped += after.SeriesSkippedByIndex - before.SeriesSkippedByIndex
						}
					}
				}
				if skipped == 0 {
					t.Errorf("%s: tier 0 skipped no series", phase)
				}
			}
			run("dense", nSeries)

			// Delete a few series from the middle of every shard, too few to
			// compact: positions past the holes are no longer arena rows, and
			// tier 0 and the scan read through the snapshots' row index.
			var del []int
			perShard := make([]int, nShards)
			for id := 100; len(del) < 6*nShards; id++ {
				if sh := ShardFor(id, nShards); perShard[sh] < 6 {
					perShard[sh]++
					del = append(del, id)
				}
			}
			if _, err := on.Mutate(ctx, server.SeriesRequest{Delete: del}); err != nil {
				t.Fatal(err)
			}
			if _, err := single.Mutate(server.SeriesRequest{Delete: del}); err != nil {
				t.Fatal(err)
			}
			for i, srv := range onServers {
				if _, dense := srv.Corpus().Snapshot().Columns(); dense {
					t.Fatalf("shard %d is still dense after the deletes", i)
				}
			}
			run("after-delete", nSeries-len(del))
		})
	}
}
