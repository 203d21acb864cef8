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

// TestClusterQueryBoundRecordsOnTheWire posts one shard's top-k /query/stream
// at one worker, once unseeded and once seeded through the body, and holds
// the wire to its contract: either stream carries only its item records and
// its done record, never a bound record, and a seed changes how much the
// shard refines but not what it answers. Seeded at the k-th key of the
// unseeded answer — the tightest cut a coordinator could send, since the
// k-th best of any subset bounds the global k-th — the shard must fully
// refine strictly fewer candidates. A body that still carries an older
// coordinator's "bound_token" is answered as if it did not.
func TestClusterQueryBoundRecordsOnTheWire(t *testing.T) {
	const nSeries, length, k = 48, 256, 3
	srv := newShardServer(t)
	ins := server.SeriesRequest{}
	for i := 0; i < nSeries; i++ {
		ins.Insert = append(ins.Insert, testSeries(length, int64(i)))
	}
	if _, err := srv.Mutate(ins); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	q := testSeries(length, 99)

	// completed sums the shard's fully refined candidates over its measures.
	completed := func() (n int64) {
		for _, st := range srv.Stats().Measures {
			n += st.Completed
		}
		return n
	}
	// stream posts body to the shard and returns the answer's IDs and keys
	// in arrival order, and the candidates the stream fully refined.
	stream := func(t *testing.T, body []byte) (ids []int, keys []float64, refined int64) {
		t.Helper()
		before := completed()
		resp, err := http.Post(hs.URL+"/query/stream", "application/json", bytes.NewReader(body))
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
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("bad NDJSON record %q: %v", sc.Text(), err)
			}
			var item server.StreamItemJSON
			switch {
			case done:
				t.Fatalf("record %s after the done record", sc.Text())
			case rec["done"] != nil:
				done = true
			case rec["id"] != nil && len(rec) == 2 && json.Unmarshal(sc.Bytes(), &item) == nil:
				ids = append(ids, item.ID)
				if item.Distance != nil {
					keys = append(keys, *item.Distance)
				} else if item.Prob != nil {
					keys = append(keys, *item.Prob)
				}
			default:
				t.Fatalf("record %s is neither an item nor the done record", sc.Text())
			}
		}
		if err := sc.Err(); err != nil || !done {
			t.Fatalf("stream ended without a done record (err %v)", err)
		}
		if len(keys) != k {
			t.Fatalf("%d keyed items, want %d", len(keys), k)
		}
		return ids, keys, completed() - before
	}
	marshal := func(t *testing.T, req interface{}) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// check streams qr unseeded, then seeded by seed from the unseeded k-th
	// key, then with a stale bound_token, and wants one answer from all
	// three; prunes says whether the seed must save full refines.
	check := func(t *testing.T, qr server.QueryRequest, seed func(req *server.StreamRequest, kth float64), prunes bool) {
		req := server.StreamRequest{QueryRequest: qr}
		req.Series, req.Workers = &q, 1
		wantIDs, wantKeys, open := stream(t, marshal(t, req))
		seeded := req
		seed(&seeded, wantKeys[k-1])
		ids, keys, refined := stream(t, marshal(t, seeded))
		if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(keys, wantKeys) {
			t.Errorf("seeded answer %v %v, want %v %v", ids, keys, wantIDs, wantKeys)
		}
		if refined > open || prunes && refined == open {
			t.Errorf("seeded: %d completed, want fewer than the unseeded %d", refined, open)
		}

		ids, keys, refined = stream(t, marshal(t, struct {
			server.QueryRequest
			Token string `json:"bound_token"`
		}{req.QueryRequest, "0123456789abcdef"}))
		if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(keys, wantKeys) || refined != open {
			t.Errorf("a body with a bound_token answered %v %v (%d completed), want %v %v (%d)", ids, keys, refined, wantIDs, wantKeys, open)
		}
	}

	t.Run("topk", func(t *testing.T) {
		// The engine's own cut sits one part in 1e15 above the k-th squared
		// distance, so exact ties survive; so does the seed.
		check(t, server.QueryRequest{Measure: "dtw", Type: "topk", K: k}, func(req *server.StreamRequest, kth float64) {
			v := kth * kth
			v += v * 1e-15
			req.BoundSq = &v
		}, true)
	})

	munichTopK := server.QueryRequest{Measure: "munich", Type: "probtopk", Eps: 6, K: k}
	t.Run("probtopk", func(t *testing.T) {
		// Seeded at 0: a proven but useless floor, which must leave the
		// answer as it was and can save no refine.
		zero := 0.0
		check(t, munichTopK, func(req *server.StreamRequest, _ float64) { req.ProbBound = &zero }, false)
	})

	t.Run("probtopk_seed_echo", func(t *testing.T) {
		// Seeded at the final k-th probability itself, the bound no resident
		// candidate can beat: the answer is the unseeded one, reached with
		// fewer refines, and the seed is not sent back on the wire.
		check(t, munichTopK, func(req *server.StreamRequest, kth float64) { req.ProbBound = &kth }, true)
	})
}
