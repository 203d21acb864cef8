package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"uncertts/internal/engine"
	"uncertts/internal/server"
)

// TestKeylessShardItemDegrades: a shard whose stream carries a top-k item
// without its key ({"id":5}: no distance, no probability) fails its leg as
// unreachable, so the answer degrades around it. The item must never enter
// the merge, where it would rank first at key 0.
func TestKeylessShardItemDegrades(t *testing.T) {
	co, _, _ := httpCluster(t, 2, Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query/stream" && i == 0 {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_, _ = w.Write([]byte("{\"id\":5}\n{\"done\":true}\n"))
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	ingest(t, co, 12, 16)
	for _, req := range []server.QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 4, Series: seriesPtr(16, 7)},
		{Measure: "proud", Type: "probtopk", K: 4, Eps: 6, Series: seriesPtr(16, 7)},
	} {
		resp, err := co.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: a key-less item should degrade the answer, not fail it: %v", req.Type, err)
		}
		if !resp.Degraded || len(resp.ShardErrors) != 1 || resp.ShardErrors[0].Shard != shardName(0) || resp.ShardErrors[0].Kind != "unreachable" {
			t.Fatalf("%s: want shard-0 unreachable, got %+v", req.Type, resp)
		}
		for _, n := range resp.Neighbors {
			if n.ID == 5 {
				t.Errorf("topk: the key-less item entered the merge: %+v", resp.Neighbors)
			}
		}
		for _, m := range resp.Matches {
			if m.ID == 5 {
				t.Errorf("probtopk: the key-less item entered the merge: %+v", resp.Matches)
			}
		}
		if len(resp.Neighbors)+len(resp.Matches) == 0 {
			t.Errorf("%s: the reachable shard's answer is missing", req.Type)
		}
	}
}

// TestReadStreamSkipsBoundRecords: a shard of an older build interleaves its
// cut's {"bound_sq": ...} or {"prob_bound": ...} reports with the items of a
// top-k stream. The leg reads past them to the same answer as the stream
// without them.
func TestReadStreamSkipsBoundRecords(t *testing.T) {
	for _, tc := range []struct {
		kind          engine.Kind
		bound, items  string
		wantNeighbors []server.NeighborJSON
		wantMatches   []server.MatchJSON
	}{
		{
			kind:          engine.KindTopK,
			bound:         `{"bound_sq":2.25}`,
			items:         `{"id":3,"distance":0.75}` + "\n" + `{"id":8,"distance":1.2}`,
			wantNeighbors: []server.NeighborJSON{{ID: 3, Distance: 0.75}, {ID: 8, Distance: 1.2}},
		},
		{
			kind:        engine.KindProbTopK,
			bound:       `{"prob_bound":0.25}`,
			items:       `{"id":2,"prob":0.9}` + "\n" + `{"id":11,"prob":0.5}`,
			wantMatches: []server.MatchJSON{{ID: 2, Prob: 0.9}, {ID: 11, Prob: 0.5}},
		},
	} {
		done := `{"done":true,"epoch":3,"total":2}`
		want := &server.QueryResponse{Type: tc.kind.String(), Epoch: 3, Total: 2, Neighbors: tc.wantNeighbors, Matches: tc.wantMatches}
		for _, stream := range []string{
			tc.items + "\n" + done + "\n",
			tc.bound + "\n" + tc.items + "\n" + tc.bound + "\n" + done + "\n",
		} {
			got, err := readStream(strings.NewReader(stream), tc.kind)
			if err != nil {
				t.Fatalf("%s: %v", tc.kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s stream %q read as %+v, want %+v", tc.kind, stream, got, want)
			}
		}
	}
}

// TestHTTPLegSeedsAFiniteCut: an HTTP leg puts the shared cut in its
// /query/stream body when the cut is finite as the leg starts, and leaves
// the body's seed out while the cut is still unbounded.
func TestHTTPLegSeedsAFiniteCut(t *testing.T) {
	var got server.StreamRequest
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = server.StreamRequest{}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		_, _ = w.Write([]byte("{\"done\":true}\n"))
	}))
	defer hs.Close()
	h := NewHTTP(shardName(0), hs.URL, nil)
	leg := func(typ string, bnd *engine.Bound, pbnd *engine.ProbBound) server.StreamRequest {
		t.Helper()
		if _, err := h.Query(context.Background(), server.QueryRequest{Measure: "euclidean", Type: typ, K: 3}, bnd, pbnd); err != nil {
			t.Fatal(err)
		}
		return got
	}

	bnd, pbnd := engine.NewBound(), engine.NewProbBound()
	if req := leg("topk", bnd, nil); req.BoundSq != nil {
		t.Errorf("an unbounded cut went out as bound_sq %v", *req.BoundSq)
	}
	if req := leg("probtopk", nil, pbnd); req.ProbBound != nil {
		t.Errorf("an unbounded cut went out as prob_bound %v", *req.ProbBound)
	}
	bnd.LowerSquared(2.25)
	pbnd.Raise(0.4)
	if req := leg("topk", bnd, nil); req.BoundSq == nil || *req.BoundSq != bnd.Squared() || req.ProbBound != nil {
		t.Errorf("topk leg sent bound_sq %v prob_bound %v, want the cut %v alone", req.BoundSq, req.ProbBound, bnd.Squared())
	}
	if req := leg("probtopk", nil, pbnd); req.ProbBound == nil || *req.ProbBound != 0.4 || req.BoundSq != nil {
		t.Errorf("probtopk leg sent prob_bound %v bound_sq %v, want the cut 0.4 alone", req.ProbBound, req.BoundSq)
	}
}

// FuzzShardStream feeds readStream arbitrary shard answers, the kind chosen
// by the first argument (mod 4, engine.Kinds order). Whatever the bytes, it
// must not panic, and an answer it returns without error may hold only
// entries that came from complete item records carrying their key. Seeds in
// testdata/fuzz/FuzzShardStream: well-formed topk, probtopk, range and
// probrange streams (the top-k two with an older shard's bound records
// interleaved), a record cut mid-line, an {"error": ...} record, and
// key-less top-k items.
func FuzzShardStream(f *testing.F) {
	type entry struct {
		id  int
		key float64
	}
	f.Fuzz(func(t *testing.T, k uint8, stream []byte) {
		kind := engine.Kinds()[int(k)%len(engine.Kinds())]
		out, err := readStream(bytes.NewReader(stream), kind)
		if err != nil {
			return
		}
		// Every complete item record that carries the key its kind ranks by.
		keyed := map[entry]int{}
		dec := json.NewDecoder(bytes.NewReader(stream))
		for {
			var rec wireRecord
			if dec.Decode(&rec) != nil {
				break
			}
			switch {
			case rec.ID == nil:
			case kind == engine.KindTopK && rec.Distance != nil:
				keyed[entry{*rec.ID, *rec.Distance}]++
			case kind == engine.KindProbTopK && rec.Prob != nil:
				keyed[entry{*rec.ID, *rec.Prob}]++
			case kind == engine.KindRange || kind == engine.KindProbRange:
				keyed[entry{*rec.ID, 0}]++
			}
		}
		topk := kind == engine.KindTopK || kind == engine.KindProbTopK
		if kind != engine.KindTopK && len(out.Neighbors) > 0 || kind != engine.KindProbTopK && len(out.Matches) > 0 || topk && len(out.IDs) > 0 {
			t.Fatalf("%s answer %+v holds another kind's entries", kind, out)
		}
		var got []entry
		for _, n := range out.Neighbors {
			got = append(got, entry{n.ID, n.Distance})
		}
		for _, m := range out.Matches {
			got = append(got, entry{m.ID, m.Prob})
		}
		for _, id := range out.IDs {
			got = append(got, entry{id, 0})
		}
		for _, e := range got {
			if keyed[e] == 0 {
				t.Fatalf("%s answer %+v holds %+v, which no complete item record with its key carries", kind, out, e)
			}
			keyed[e]--
		}
	})
}
