package cluster

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"uncertts/internal/corpus"
	"uncertts/internal/engine"
	"uncertts/internal/munich"
	"uncertts/internal/qerr"
	"uncertts/internal/server"
	"uncertts/internal/stats"
)

// TestShardForGolden pins the shard map value-for-value: resident series
// were routed by these exact assignments, so any drift silently orphans
// them. If this test fails, the hash changed — that is a data-format
// break, not a test to update.
func TestShardForGolden(t *testing.T) {
	golden := map[int][]int{
		2: {0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1},
		3: {0, 1, 1, 2, 2, 0, 1, 1, 1, 0, 2, 2, 1, 1, 0, 1},
		4: {0, 1, 2, 0, 0, 0, 0, 0, 0, 3, 1, 1, 0, 1, 1, 1},
		8: {0, 5, 2, 0, 4, 4, 4, 4, 0, 7, 1, 5, 4, 1, 1, 1},
	}
	for n, want := range golden {
		for id, w := range want {
			if got := ShardFor(id, n); got != w {
				t.Errorf("ShardFor(%d, %d) = %d, golden %d", id, n, got, w)
			}
		}
	}
	// int64 keys: 1 << 40 is no int constant where int has 32 bits.
	big := map[int64]int{1 << 40: 0, 123456789: 0, 987654321: 0, 55555: 6, 31337: 4}
	for id, w := range big {
		if got := ShardFor(int(id), 8); got != w {
			t.Errorf("ShardFor(%d, 8) = %d, golden %d", id, got, w)
		}
	}
	for _, n := range []int{0, 1, -1} {
		if got := ShardFor(42, n); got != 0 {
			t.Errorf("ShardFor(42, %d) = %d, want 0", n, got)
		}
	}
}

// TestShardForSpreads sanity-checks that contiguous coordinator-allocated
// IDs spread roughly evenly.
func TestShardForSpreads(t *testing.T) {
	counts := make([]int, 4)
	for id := 0; id < 10000; id++ {
		counts[ShardFor(id, 4)]++
	}
	for s, c := range counts {
		if c < 2000 || c > 3000 {
			t.Errorf("shard %d holds %d of 10000 contiguous IDs (want ~2500)", s, c)
		}
	}
}

// testSeries derives a deterministic series with samples from a seed —
// every error model the seven measures need.
func testSeries(length int, seed int64) server.SeriesJSON {
	rng := stats.NewRand(seed + 400)
	s := server.SeriesJSON{Values: make([]float64, length), Samples: make([][]float64, length), Sigma: 0.3}
	for i := range s.Values {
		s.Values[i] = math.Cos(float64(seed)*0.9+float64(i)*0.27) + 0.2*rng.NormFloat64()
		row := make([]float64, 3)
		for j := range row {
			row[j] = s.Values[i] + 0.15*rng.NormFloat64()
		}
		s.Samples[i] = row
	}
	return s
}

func newShardServer(t testing.TB) *server.Server {
	t.Helper()
	c := corpus.New(corpus.Config{ReportedSigma: 0.3, Segments: 4})
	return server.New(c, server.Options{MUNICH: munich.Options{Bins: 256}})
}

// localCluster builds an n-shard in-process cluster.
func localCluster(t testing.TB, n int, opts Options) (*Coordinator, []*server.Server) {
	t.Helper()
	shards := make([]Shard, n)
	servers := make([]*server.Server, n)
	for i := range shards {
		servers[i] = newShardServer(t)
		shards[i] = NewLocal(shardName(i), servers[i])
	}
	return New(shards, opts), servers
}

func shardName(i int) string { return "shard-" + string(rune('0'+i)) }

// httpCluster builds an n-shard cluster of real HTTP shard processes
// (httptest servers), each optionally wrapped in middleware.
func httpCluster(t testing.TB, n int, opts Options, mw func(int, http.Handler) http.Handler) (*Coordinator, []*server.Server, []*httptest.Server) {
	t.Helper()
	shards := make([]Shard, n)
	servers := make([]*server.Server, n)
	httpServers := make([]*httptest.Server, n)
	for i := range shards {
		servers[i] = newShardServer(t)
		h := servers[i].Handler()
		if mw != nil {
			h = mw(i, h)
		}
		httpServers[i] = httptest.NewServer(h)
		t.Cleanup(httpServers[i].Close)
		shards[i] = NewHTTP(shardName(i), httpServers[i].URL, nil)
	}
	return New(shards, opts), servers, httpServers
}

// ingest loads count deterministic series through the coordinator and
// returns their global IDs (contiguous from the allocator).
func ingest(t testing.TB, co *Coordinator, count, length int) []int {
	t.Helper()
	req := server.SeriesRequest{}
	for i := 0; i < count; i++ {
		req.Insert = append(req.Insert, testSeries(length, int64(i)))
	}
	resp, err := co.Mutate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.IDs
}

// singleNode builds the reference: one server holding the same series in
// the same insertion order (hence the same stable IDs).
func singleNode(t testing.TB, count, length int) *server.Server {
	t.Helper()
	srv := newShardServer(t)
	req := server.SeriesRequest{}
	for i := 0; i < count; i++ {
		req.Insert = append(req.Insert, testSeries(length, int64(i)))
	}
	if _, err := srv.Mutate(req); err != nil {
		t.Fatal(err)
	}
	return srv
}

// parityCases covers every measure and query kind, plus a windowed case.
func parityCases() []server.QueryRequest {
	return []server.QueryRequest{
		{Measure: "euclidean", Type: "topk", K: 5},
		{Measure: "euclidean", Type: "topk", K: 8, Offset: 2, Limit: 3},
		{Measure: "euclidean", Type: "range", Eps: 4},
		{Measure: "uma", Type: "topk", K: 5},
		{Measure: "uma", Type: "range", Eps: 4},
		{Measure: "uema", Type: "topk", K: 5},
		{Measure: "uema", Type: "range", Eps: 4},
		{Measure: "dtw", Type: "topk", K: 5},
		{Measure: "dtw", Type: "range", Eps: 4},
		{Measure: "dust", Type: "topk", K: 5},
		{Measure: "dust", Type: "range", Eps: 6},
		{Measure: "proud", Type: "probtopk", Eps: 2, K: 5},
		{Measure: "proud", Type: "probrange", Eps: 2, Tau: 0.1},
		{Measure: "munich", Type: "probtopk", Eps: 2, K: 5},
		{Measure: "munich", Type: "probrange", Eps: 2, Tau: 0.05},
	}
}

// TestClusterParityWithSingleNode is the core guarantee: for every
// measure, every query kind, ad-hoc and ID-targeted, over in-process and
// HTTP shards at 1, 2 and 4 shards, the scatter-gather answer is
// bit-identical to a single node holding the union of the series (epoch
// excepted — the cluster epoch is the sum of shard epochs).
func TestClusterParityWithSingleNode(t *testing.T) {
	const nSeries, length = 24, 32
	single := singleNode(t, nSeries, length)
	ctx := context.Background()

	check := func(t *testing.T, co *Coordinator) {
		for _, base := range parityCases() {
			for _, target := range []string{"adhoc", "id"} {
				req := base
				if target == "id" {
					id := 3
					req.ID = &id
				} else {
					q := testSeries(length, 99)
					req.Series = &q
				}
				want, err := single.Run(ctx, req)
				if err != nil {
					t.Fatalf("%s/%s %s single-node: %v", req.Measure, req.Type, target, err)
				}
				got, err := co.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s/%s %s cluster: %v", req.Measure, req.Type, target, err)
				}
				if got.Degraded || len(got.ShardErrors) != 0 {
					t.Fatalf("%s/%s %s: unexpected degradation %+v", req.Measure, req.Type, target, got.ShardErrors)
				}
				want.Epoch, got.Epoch = 0, 0
				if !reflect.DeepEqual(*want, got.QueryResponse) {
					t.Errorf("%s/%s %s: cluster answer diverges\n want %+v\n  got %+v", req.Measure, req.Type, target, *want, got.QueryResponse)
				}
			}
		}
	}

	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run("local/"+string(rune('0'+n)), func(t *testing.T) {
			co, _ := localCluster(t, n, Options{})
			ingest(t, co, nSeries, length)
			check(t, co)
		})
		t.Run("http/"+string(rune('0'+n)), func(t *testing.T) {
			co, _, _ := httpCluster(t, n, Options{}, nil)
			ingest(t, co, nSeries, length)
			check(t, co)
		})
	}
}

// TestCoordinatorBoundPropagationReducesRefines shows the point of the
// shared cut deterministically: the same 4-shard query answered with one
// shared bound (what the coordinator injects) completes strictly fewer
// full refinements than with a private bound per shard. Shards run
// sequentially with one worker so both sides are deterministic.
func TestCoordinatorBoundPropagationReducesRefines(t *testing.T) {
	const nSeries, length = 160, 48
	run := func(shared bool) int64 {
		co, servers := localCluster(t, 4, Options{})
		ingest(t, co, nSeries, length)
		q := testSeries(length, 500)
		req := server.QueryRequest{Measure: "euclidean", Type: "topk", K: 3, Series: &q, Workers: 1}
		ctx := context.Background()
		bnd := engine.NewBound()
		for _, sh := range co.Shards() {
			if !shared {
				bnd = engine.NewBound()
			}
			if _, err := sh.Query(ctx, req, bnd, nil); err != nil {
				t.Fatal(err)
			}
		}
		var completed int64
		for _, srv := range servers {
			for _, ms := range srv.Stats().Measures {
				completed += ms.Completed
			}
		}
		return completed
	}
	withProp, withoutProp := run(true), run(false)
	if withProp >= withoutProp {
		t.Fatalf("shared bound completed %d refinements, private bounds %d — propagation should prune strictly more", withProp, withoutProp)
	}
}

// TestSharedBoundAnswersLikeSingleNode drives four shards through the
// coordinator, which shares one pruning cut among them, and holds the answer
// to a single node's over the same series: the cut prunes work, never
// results. (That sharing it prunes strictly more than private cuts is pinned
// deterministically above.)
func TestSharedBoundAnswersLikeSingleNode(t *testing.T) {
	const nSeries, length = 160, 48
	co, _ := localCluster(t, 4, Options{})
	ingest(t, co, nSeries, length)
	single := singleNode(t, nSeries, length)

	ctx := context.Background()
	req := server.QueryRequest{Measure: "euclidean", Type: "topk", K: 5, Series: seriesPtr(length, 501)}
	got, err := co.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got.Epoch, want.Epoch = 0, 0
	if !reflect.DeepEqual(got.QueryResponse, *want) {
		t.Fatalf("the shared cut changed the answer:\n cluster %+v\n single  %+v", got.QueryResponse, *want)
	}
}

// hangFlag lets middleware start misbehaving only after ingest.
type hangFlag struct{ atomic.Bool }

// TestDegradedShardTimeout kills one shard's query path by hanging it:
// the coordinator's per-shard deadline fires, the answer degrades with a
// typed timeout, and when every shard hangs the query fails 504.
func TestDegradedShardTimeout(t *testing.T) {
	var hangAll, hangOne hangFlag
	co, _, _ := httpCluster(t, 3, Options{ShardTimeout: 150 * time.Millisecond}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query/stream" && (hangAll.Load() || (hangOne.Load() && i == 1)) {
				// Drain the body first: the server only watches for client
				// disconnect (which cancels r.Context()) once the request
				// body has been consumed.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	ingest(t, co, 12, 16)
	ctx := context.Background()
	req := server.QueryRequest{Measure: "euclidean", Type: "topk", K: 4, Series: seriesPtr(16, 7)}

	hangOne.Store(true)
	resp, err := co.Query(ctx, req)
	if err != nil {
		t.Fatalf("one slow shard should degrade, not fail: %v", err)
	}
	if !resp.Degraded || len(resp.ShardErrors) != 1 {
		t.Fatalf("want one degraded shard, got %+v", resp)
	}
	if resp.ShardErrors[0].Kind != "timeout" || resp.ShardErrors[0].Shard != shardName(1) {
		t.Fatalf("want a timeout on shard-1, got %+v", resp.ShardErrors[0])
	}
	if len(resp.Neighbors) == 0 {
		t.Fatal("degraded answer should still carry the reachable shards' neighbours")
	}

	hangAll.Store(true)
	if _, err := co.Query(ctx, req); err == nil {
		t.Fatal("every shard slow: the query must fail")
	} else if statusFor(err) != http.StatusGatewayTimeout {
		t.Fatalf("all-shards-slow should map to 504, got %d (%v)", statusFor(err), err)
	}
}

// TestDegradedShardUnreachable takes one shard's process down entirely.
func TestDegradedShardUnreachable(t *testing.T) {
	co, _, httpServers := httpCluster(t, 3, Options{}, nil)
	ingest(t, co, 12, 16)
	ctx := context.Background()
	req := server.QueryRequest{Measure: "euclidean", Type: "topk", K: 4, Series: seriesPtr(16, 7)}

	httpServers[2].Close()
	resp, err := co.Query(ctx, req)
	if err != nil {
		t.Fatalf("one dead shard should degrade, not fail: %v", err)
	}
	if !resp.Degraded || len(resp.ShardErrors) != 1 {
		t.Fatalf("want one degraded shard, got %+v", resp)
	}
	se := resp.ShardErrors[0]
	if se.Kind != "unreachable" || se.Shard != shardName(2) {
		t.Fatalf("want unreachable shard-2, got %+v", se)
	}

	httpServers[0].Close()
	httpServers[1].Close()
	if _, err := co.Query(ctx, req); err == nil {
		t.Fatal("every shard dead: the query must fail")
	} else if statusFor(err) != http.StatusBadGateway {
		t.Fatalf("all-shards-dead should map to 502, got %d (%v)", statusFor(err), err)
	} else if !errors.Is(err, qerr.ErrShardUnreachable) {
		t.Fatalf("want qerr.ErrShardUnreachable, got %v", err)
	}
}

// TestDegradedMidStreamDeath crashes a shard after it has streamed part
// of its answer: the truncated stream must not contaminate the merge.
func TestDegradedMidStreamDeath(t *testing.T) {
	var die hangFlag
	co, _, _ := httpCluster(t, 3, Options{}, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query/stream" && die.Load() && i == 0 {
				// A plausible item record, then the connection dies with no
				// done record — as if the process was SIGKILLed mid-query.
				w.Header().Set("Content-Type", "application/x-ndjson")
				_, _ = w.Write([]byte("{\"id\":0,\"distance\":0.0}\n"))
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	ingest(t, co, 12, 16)
	die.Store(true)
	resp, err := co.Query(context.Background(), server.QueryRequest{Measure: "euclidean", Type: "topk", K: 4, Series: seriesPtr(16, 7)})
	if err != nil {
		t.Fatalf("mid-stream death should degrade, not fail: %v", err)
	}
	if !resp.Degraded || resp.ShardErrors[0].Kind != "unreachable" {
		t.Fatalf("want unreachable degradation, got %+v", resp)
	}
	for _, nb := range resp.Neighbors {
		if nb.ID == 0 && nb.Distance == 0 {
			t.Fatal("the dead shard's truncated stream leaked into the merge")
		}
	}
}

// TestShardRefusalFailsWholeQuery: a request every shard would refuse
// (validation, unknown ID) is the query's own fault and must fail with
// the shard's status, never degrade.
func TestShardRefusalFailsWholeQuery(t *testing.T) {
	co, _, _ := httpCluster(t, 2, Options{}, nil)
	ingest(t, co, 8, 16)
	ctx := context.Background()

	if _, err := co.Query(ctx, server.QueryRequest{Measure: "euclidean", Type: "topk", K: 0, Series: seriesPtr(16, 7)}); err == nil {
		t.Fatal("k=0 must fail")
	} else if statusFor(err) != http.StatusBadRequest {
		t.Fatalf("k=0 should map to 400, got %d (%v)", statusFor(err), err)
	}

	id := 99999
	if _, err := co.Query(ctx, server.QueryRequest{Measure: "euclidean", Type: "topk", K: 3, ID: &id}); err == nil {
		t.Fatal("an unknown ID must fail")
	} else if statusFor(err) != http.StatusNotFound {
		t.Fatalf("unknown ID should map to 404, got %d (%v)", statusFor(err), err)
	}
}

// TestMutateRoutingAndRecovery checks that every series lands on its
// ShardFor home, that deletions find it there again, that the allocator
// recovers from shard state alone, and that insert_ids is refused.
func TestMutateRoutingAndRecovery(t *testing.T) {
	co, servers := localCluster(t, 3, Options{})
	ids := ingest(t, co, 20, 16)
	ctx := context.Background()

	for i, id := range ids {
		if id != i {
			t.Fatalf("coordinator IDs must be contiguous from 0, got %v", ids)
		}
	}
	for s, srv := range servers {
		snap := srv.Corpus().Snapshot()
		for i := 0; i < snap.Len(); i++ {
			if home := ShardFor(snap.IDAt(i), 3); home != s {
				t.Errorf("series %d lives on shard %d, ShardFor says %d", snap.IDAt(i), s, home)
			}
		}
	}

	// A fresh coordinator over the same shards recovers the allocator.
	co2 := New(co.Shards(), Options{})
	resp, err := co2.Mutate(ctx, server.SeriesRequest{Insert: []server.SeriesJSON{testSeries(16, 100)}, Delete: []int{3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 1 || resp.IDs[0] != 20 {
		t.Fatalf("recovered allocator should continue at 20, got %v", resp.IDs)
	}
	if resp.Series != 19 {
		t.Fatalf("21 inserted - 2 deleted = 19 resident, got %d", resp.Series)
	}
	id := 3
	if _, err := co2.Query(ctx, server.QueryRequest{Measure: "euclidean", Type: "topk", K: 2, ID: &id}); err == nil {
		t.Fatal("deleted series must be gone")
	} else if statusFor(err) != http.StatusNotFound {
		t.Fatalf("want 404 for a deleted ID, got %d", statusFor(err))
	}

	if _, err := co2.Mutate(ctx, server.SeriesRequest{Insert: []server.SeriesJSON{testSeries(16, 101)}, InsertIDs: []int{500}}); err == nil {
		t.Fatal("insert_ids must be refused at the coordinator")
	}
}

// TestClusterStatsAndHealth checks the merged accounting and the health
// rollup, including an unreachable shard.
func TestClusterStatsAndHealth(t *testing.T) {
	co, _, httpServers := httpCluster(t, 3, Options{}, nil)
	ingest(t, co, 12, 16)
	ctx := context.Background()
	if _, err := co.Query(ctx, server.QueryRequest{Measure: "euclidean", Type: "topk", K: 4, Series: seriesPtr(16, 7)}); err != nil {
		t.Fatal(err)
	}

	st, err := co.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Series != 12 {
		t.Fatalf("merged stats should count 12 resident series, got %d", st.Series)
	}
	// The shards' /stats carry next_id over the wire; the merge is the max,
	// where a recovered allocator continues.
	if st.NextID != 12 {
		t.Fatalf("merged stats should put the next unassigned ID at 12, got %d", st.NextID)
	}
	ms, ok := st.Measures["Euclidean"]
	if !ok || ms.Candidates == 0 {
		t.Fatalf("merged stats should carry Euclidean counters, got %+v", st.Measures)
	}

	if h := co.Health(ctx); h.Status != "ok" || len(h.Shards) != 3 {
		t.Fatalf("healthy cluster should report ok over 3 shards, got %+v", h)
	}
	httpServers[1].Close()
	h := co.Health(ctx)
	if h.Status != "degraded" || h.Shards[1].Status != "unreachable" {
		t.Fatalf("a dead shard should degrade health, got %+v", h)
	}
}

func seriesPtr(length int, seed int64) *server.SeriesJSON {
	s := testSeries(length, seed)
	return &s
}
