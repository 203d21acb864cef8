package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/server"
)

// TestTiesAcrossKthPlaceComeBackInIDOrder poses the adversarial input of the
// one ranked collector: six exact duplicates resident in the corpus, so a
// top-3 cuts through a group of candidates at distance exactly 0 — and, for
// the probabilistic measures, at one and the same match probability. Such a
// tie can only be broken by ID, on the shard and again at the coordinator's
// merge, and a cut that is a hair too tight drops the tied candidates it
// should keep. Answers must be the lowest IDs of the group in ascending
// order, from clusters of 1 and 2 shards sharing the Bound/ProbBound the
// coordinator injects, and from a single node, the reference.
func TestTiesAcrossKthPlaceComeBackInIDOrder(t *testing.T) {
	const length, dups, k = 32, 6, 3
	ctx := context.Background()
	base := testSeries(length, 7)
	ins := server.SeriesRequest{}
	for i := 0; i < dups; i++ {
		ins.Insert = append(ins.Insert, base)
	}
	for i := 0; i < 10; i++ {
		ins.Insert = append(ins.Insert, testSeries(length, int64(100+i)))
	}

	// check poses every tie query to one arm, whose ingest of ins assigned
	// ids.
	check := func(t *testing.T, ids []int, query func(server.QueryRequest) (*server.QueryResponse, error)) {
		group := ids[:dups] // ascending: the allocator is monotone
		for _, q := range []server.QueryRequest{
			{Measure: "euclidean", Type: "topk", K: k},
			{Measure: "dtw", Type: "topk", K: k},
			{Measure: "dust", Type: "topk", K: k},
			{Measure: "proud", Type: "probtopk", Eps: 2, K: k},
			{Measure: "munich", Type: "probtopk", Eps: 1, K: k}, // identical sample sets: about 0.56
		} {
			for _, byID := range []bool{false, true} {
				want := group[:k]
				if byID {
					q.ID, q.Series = &group[0], nil
					want = group[1 : k+1] // the query series itself is excluded
				} else {
					q.ID, q.Series = nil, &base
				}
				name := fmt.Sprintf("%s/%s/by-id=%v", q.Measure, q.Type, byID)
				got, err := query(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var ids []int
				var keys []float64
				for _, n := range got.Neighbors {
					ids, keys = append(ids, n.ID), append(keys, n.Distance)
				}
				for _, m := range got.Matches {
					ids, keys = append(ids, m.ID), append(keys, m.Prob)
				}
				if fmt.Sprint(ids) != fmt.Sprint(want) {
					t.Errorf("%s: ids %v, want %v (keys %v)", name, ids, want, keys)
					continue
				}
				for _, key := range keys {
					if math.Float64bits(key) != math.Float64bits(keys[0]) {
						t.Errorf("%s: the answer is not one tie group: keys %v", name, keys)
					}
				}
				if q.Type == "topk" && keys[0] != 0 {
					t.Errorf("%s: duplicates at distance %v, want 0", name, keys[0])
				}
				if q.Type == "probtopk" && (keys[0] <= 0 || keys[0] >= 1) {
					t.Errorf("%s: tie probability %v is degenerate; the case proves nothing about ranking", name, keys[0])
				}
			}
		}
	}

	for _, nShards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d/shared-bound=true", nShards), func(t *testing.T) {
			co, _ := localCluster(t, nShards, Options{})
			resp, err := co.Mutate(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			check(t, resp.IDs, func(q server.QueryRequest) (*server.QueryResponse, error) {
				got, err := co.Query(ctx, q)
				if err != nil {
					return nil, err
				}
				return &got.QueryResponse, nil
			})
		})
	}
	t.Run("single-node", func(t *testing.T) {
		srv := newShardServer(t)
		resp, err := srv.Mutate(ins)
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp.IDs, func(q server.QueryRequest) (*server.QueryResponse, error) { return srv.Run(ctx, q) })
	})
}

// TestClusterQueryBoundRecordsOnTheWire reads a shard's top-k /query/stream
// answer and holds the bound records in it to their wire contract, which the
// engine's cut must honour whatever it stores internally: bound_sq is a
// non-increasing upper bound on the k-th best squared distance, prob_bound a
// non-decreasing lower bound on the k-th best probability (a probability, in
// its natural sign), both reaching — never passing — the final answer's k-th
// entry, and a bound seeded by the coordinator is reported back unchanged
// until the shard improves on it.
func TestClusterQueryBoundRecordsOnTheWire(t *testing.T) {
	const nSeries, k = 48, 3
	// Unconstrained DTW over long series and a fine-grained MUNICH estimator
	// make one query last tens of bound-poll intervals, so records do get
	// interleaved. DTW's banded kernel is fast enough that at 256 points its
	// query could end before the first tick; it gets series three times as
	// long, and a shard of its own so MUNICH's refines do not grow with them.
	// MUNICH's estimator runs at 32768 bins: at 16384 the grouped shifted adds
	// finished a probtopk before the first tick in 1 of 200 runs.
	shard := func(length int) (url string, q server.SeriesJSON) {
		srv := server.New(corpus.New(corpus.Config{ReportedSigma: 0.3, Segments: 4, Band: -1}),
			server.Options{MUNICH: munich.Options{Bins: 32768}})
		ins := server.SeriesRequest{}
		for i := 0; i < nSeries; i++ {
			ins.Insert = append(ins.Insert, testSeries(length, int64(i)))
		}
		if _, err := srv.Mutate(ins); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(hs.Close)
		return hs.URL, testSeries(length, 99)
	}
	dtwURL, dtwQ := shard(768)
	url, q := shard(256)

	// stream posts one scatter leg to the shard at url and returns the
	// bound records and the answer's keys, both in arrival order.
	stream := func(url string, req server.StreamRequest) (bounds []server.ClusterBoundJSON, keys []float64) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/query/stream: status %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		done := false
		for sc.Scan() {
			var rec struct {
				server.ClusterBoundJSON
				Distance *float64 `json:"distance"`
				Prob     *float64 `json:"prob"`
				Done     bool     `json:"done"`
				Error    string   `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad NDJSON record %q: %v", sc.Text(), err)
			}
			switch {
			case rec.Error != "":
				t.Fatalf("stream failed: %s", rec.Error)
			case rec.Done:
				done = true
			case rec.BoundSq != nil || rec.ProbBound != nil:
				bounds = append(bounds, rec.ClusterBoundJSON)
			case rec.Distance != nil:
				keys = append(keys, *rec.Distance)
			case rec.Prob != nil:
				keys = append(keys, *rec.Prob)
			}
		}
		if err := sc.Err(); err != nil || !done {
			t.Fatalf("stream ended without a done record (err %v)", err)
		}
		return bounds, keys
	}

	t.Run("topk", func(t *testing.T) {
		bounds, keys := stream(dtwURL, server.StreamRequest{QueryRequest: server.QueryRequest{Measure: "dtw", Type: "topk", K: k, Series: &dtwQ}})
		if len(keys) != k || len(bounds) == 0 {
			t.Fatalf("%d answers, %d bound records; want %d and at least one", len(keys), len(bounds), k)
		}
		kth2 := keys[k-1] * keys[k-1]
		last := math.Inf(1)
		for _, b := range bounds {
			if b.BoundSq == nil || b.ProbBound != nil {
				t.Fatalf("a topk stream carries bound_sq records only: %+v", b)
			}
			if *b.BoundSq >= last || *b.BoundSq < kth2 {
				t.Errorf("bound_sq %v after %v: want strictly tightening, never under the final k-th squared %v", *b.BoundSq, last, kth2)
			}
			last = *b.BoundSq
		}
		// The shard's cut carries the engine's ulpUp margin (one part in
		// 1e15) above the k-th squared distance, so exact ties survive.
		if final, floor := bounds[len(bounds)-1], kth2+kth2*1e-15; *final.BoundSq < floor {
			t.Errorf("final bound_sq %v is tighter than the k-th best allows (%v)", *final.BoundSq, floor)
		}
	})

	// probtopk posts the MUNICH query under a seeded bound and holds the
	// records to the contract: prob_bound only, strictly rising, from the
	// seed at the lowest to the final k-th probability at the highest.
	probtopk := func(t *testing.T, seed float64) (bounds []server.ClusterBoundJSON, keys []float64) {
		bounds, keys = stream(url, server.StreamRequest{
			QueryRequest: server.QueryRequest{Measure: "munich", Type: "probtopk", Eps: 6, K: k, Series: &q},
			ProbBound:    &seed,
		})
		if len(keys) != k || len(bounds) == 0 {
			t.Fatalf("%d answers, %d bound records; want %d and at least one", len(keys), len(bounds), k)
		}
		last := math.Inf(-1)
		for _, b := range bounds {
			if b.ProbBound == nil || b.BoundSq != nil {
				t.Fatalf("a probtopk stream carries prob_bound records only: %+v", b)
			}
			if p := *b.ProbBound; p <= last || p < seed || p > keys[k-1] || math.Signbit(p) {
				t.Errorf("prob_bound %v after %v: want strictly rising within [seed %v, final k-th probability %v]", p, last, seed, keys[k-1])
			}
			last = *b.ProbBound
		}
		return bounds, keys
	}

	t.Run("probtopk", func(t *testing.T) {
		// Seeded at 0 — a proven but useless floor. Whether 0 itself is
		// reported depends on the first k refines outlasting the first poll
		// tick; that every record is a probability at or above it does not.
		probtopk(t, 0)
	})

	t.Run("probtopk_seed_echo", func(t *testing.T) {
		// Seeded at the final k-th probability itself, the bound no resident
		// candidate can beat: the shard has nothing to improve on, so every
		// record it sends is the coordinator's seed, echoed unchanged — and
		// the answer is the one the useless seed gave.
		_, want := probtopk(t, 0)
		bounds, keys := probtopk(t, want[k-1])
		for _, b := range bounds {
			if *b.ProbBound != want[k-1] {
				t.Errorf("prob_bound %v, want the coordinator's seed %v echoed", *b.ProbBound, want[k-1])
			}
		}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("answer under the tight seed %v, want %v", keys, want)
		}
	})
}
