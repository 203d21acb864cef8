package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"uncertts/internal/engine"
	"uncertts/internal/qerr"
	"uncertts/internal/server"
	"uncertts/internal/telemetry"
)

// Options configures a Coordinator.
type Options struct {
	// ShardTimeout bounds each shard's leg of a query (0 = only the
	// query's own context bounds it). Expiry degrades the answer rather
	// than failing it: the slow shard's contribution is dropped and the
	// response carries qerr.ErrShardTimeout in its per-shard detail.
	ShardTimeout time.Duration

	// Tracer receives the coordinator's finished query traces (nil = the
	// process-wide telemetry.DefaultTracer).
	Tracer *telemetry.Tracer
}

// Coordinator scatters queries over a set of shards and gathers the
// answers back into one deterministic response. With every shard
// reachable the merged answer is bit-identical to a single-node corpus
// holding the union of the shards' series (see the package doc for why);
// with shards down or slow it degrades to the partial merge.
//
// The coordinator also owns global ID allocation: mutations are
// serialized, IDs are handed out monotonically (recovered lazily as the
// max next-ID over shards), and each series lands on ShardFor(id) — which
// is also how deletions and ID-targeted queries find it again.
type Coordinator struct {
	shards []Shard
	opts   Options
	tracer *telemetry.Tracer

	// mu serializes mutations and guards the global ID allocator.
	mu     sync.Mutex
	nextID int // -1 until recovered from the shards' Stats
}

// New builds a coordinator over the shards. The shard order is part of
// the cluster identity: ShardFor indexes into it.
func New(shards []Shard, opts Options) *Coordinator {
	tracer := opts.Tracer
	if tracer == nil {
		tracer = telemetry.DefaultTracer()
	}
	return &Coordinator{shards: shards, opts: opts, tracer: tracer, nextID: -1}
}

// Shards returns the shard set in cluster order.
func (c *Coordinator) Shards() []Shard { return c.shards }

// ShardErrorJSON is one failed shard's detail in a degraded response.
type ShardErrorJSON struct {
	Shard string `json:"shard"`
	// Kind is "timeout" (reachable but too slow) or "unreachable".
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// Response is a coordinator query answer: the merged QueryResponse plus
// the degradation picture. Epoch is the sum of the answering shards'
// epochs (a cluster-wide mutation counter, not comparable to a
// single-node epoch).
type Response struct {
	server.QueryResponse
	// Degraded reports that at least one shard did not contribute; the
	// result is correct for the reachable partition but may be missing
	// globally better answers.
	Degraded    bool             `json:"degraded,omitempty"`
	ShardErrors []ShardErrorJSON `json:"shard_errors,omitempty"`
}

// Query scatters one query to every shard and merges the answers.
//
// Top-k kinds share one pruning cut across all shards. In-process shards
// share it mid-scan: each shard's engine lowers the one atomic as its local
// top-k fills, and still-running shards read the tightened global value.
// A remote shard prunes against its own cut: the cut starts unbounded and
// every leg starts at once, so there is nothing yet to seed its
// /query/stream body with, and nothing crosses the wire after (HTTPShard).
// ID-targeted queries run as an ID query on the series' home shard (which
// excludes the series itself, exactly like single-node) and as the
// equivalent ad-hoc query everywhere else.
func (c *Coordinator) Query(ctx context.Context, req server.QueryRequest) (*Response, error) {
	if len(c.shards) == 0 {
		return nil, qerr.BadRequestf("the coordinator has no shards")
	}
	m, err := engine.ParseMeasure(req.Measure)
	if err != nil {
		return nil, err
	}
	kind, err := engine.ParseKind(req.Type)
	if err != nil {
		return nil, err
	}
	if req.Offset < 0 || req.Limit < 0 {
		return nil, qerr.BadRequestf("offset and limit must be non-negative")
	}
	if req.TimeoutMS < 0 {
		return nil, qerr.BadRequestf("timeout_ms must be non-negative")
	}

	// Shards answer unwindowed (the offset/limit window is defined on the
	// globally merged ordering) and without their own deadline (the
	// per-shard ShardTimeout and the query context bound them).
	shardReq := req
	shardReq.Offset, shardReq.Limit, shardReq.TimeoutMS = 0, 0, 0

	homeShard := -1
	var fwdReq server.QueryRequest
	if req.ID != nil {
		homeShard = ShardFor(*req.ID, len(c.shards))
		rec, err := c.shards[homeShard].FetchSeries(ctx, *req.ID)
		if err != nil {
			// Without the series there is no query to forward — this
			// failure cannot degrade, it fails the query (404 for an
			// unknown ID, 502/504 for a dead or slow home shard).
			return nil, classify(ctx, c.shards[homeShard].Name(), err)
		}
		fwdReq = shardReq
		fwdReq.ID = nil
		fwdReq.Series = forwardSeries(m, rec)
	}

	var bnd *engine.Bound
	var pbnd *engine.ProbBound
	switch kind {
	case engine.KindTopK:
		bnd = engine.NewBound()
	case engine.KindProbTopK:
		pbnd = engine.NewProbBound()
	}

	tr := telemetry.TraceFrom(ctx)
	results := make([]*server.QueryResponse, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			sreq := shardReq
			if homeShard >= 0 && i != homeShard {
				sreq = fwdReq
			}
			sctx, cancel := c.shardContext(ctx)
			defer cancel()
			sp := tr.Start("scatter:" + sh.Name())
			start := time.Now()
			res, err := sh.Query(sctx, sreq, bnd, pbnd)
			scatterDuration.With(sh.Name()).Observe(time.Since(start).Seconds())
			sp.EndErr(err)
			if err != nil {
				errs[i] = classify(ctx, sh.Name(), err)
				return
			}
			results[i] = res
		}(i, sh)
	}
	wg.Wait()

	var shardErrs []ShardErrorJSON
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !degradable(err) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
		ekind := "unreachable"
		if errors.Is(err, qerr.ErrShardTimeout) {
			ekind = "timeout"
		}
		shardErrors.With(c.shards[i].Name(), ekind).Inc()
		shardErrs = append(shardErrs, ShardErrorJSON{Shard: c.shards[i].Name(), Kind: ekind, Error: err.Error()})
	}
	answered := 0
	for _, r := range results {
		if r != nil {
			answered++
		}
	}
	if answered == 0 {
		return nil, firstErr
	}

	out := &Response{
		QueryResponse: server.QueryResponse{Measure: m.String(), Type: kind.String()},
		Degraded:      len(shardErrs) > 0,
		ShardErrors:   shardErrs,
	}
	if out.Degraded {
		degradedQueries.Inc()
		tr.SetDegraded()
	}
	for _, r := range results {
		if r != nil {
			out.Epoch += r.Epoch
		}
	}
	msp := tr.Start("merge")
	c.merge(out, results, kind, req)
	msp.End()
	return out, nil
}

// merge folds the per-shard answers into the global one. Every kind ranks
// by (key, ID): the distance for topk, the negated probability for probtopk
// (as the engine's collector ranks it: negation is exact, so -p orders and
// ties exactly as p descending), none for the range kinds, whose answer is
// in ID order and never cut to k.
func (c *Coordinator) merge(out *Response, results []*server.QueryResponse, kind engine.Kind, req server.QueryRequest) {
	switch kind {
	case engine.KindTopK:
		out.Neighbors, out.Total = rank(results, req,
			func(r *server.QueryResponse) []server.NeighborJSON { return r.Neighbors },
			func(n server.NeighborJSON) (float64, int) { return n.Distance, n.ID })
	case engine.KindProbTopK:
		out.Matches, out.Total = rank(results, req,
			func(r *server.QueryResponse) []server.MatchJSON { return r.Matches },
			func(m server.MatchJSON) (float64, int) { return -m.Prob, m.ID })
	default:
		req.K = 0 // a range answer is never cut
		out.IDs, out.Total = rank(results, req,
			func(r *server.QueryResponse) []int { return r.IDs },
			func(id int) (float64, int) { return 0, id })
	}
}

// rank is the one merge: the union of the shards' entries (entries picks
// them out of an answer) sorted by key, cut to the first req.K (0 = all),
// and the pre-window total beside the /query offset/limit window of it. An
// empty window stays nil so the JSON field is omitted, exactly like a
// single-node empty answer.
func rank[T any](results []*server.QueryResponse, req server.QueryRequest, entries func(*server.QueryResponse) []T, key func(T) (float64, int)) ([]T, int) {
	var all []T
	for _, r := range results {
		if r != nil {
			all = append(all, entries(r)...)
		}
	}
	slices.SortFunc(all, func(a, b T) int {
		ka, ia := key(a)
		kb, ib := key(b)
		return cmp.Or(cmp.Compare(ka, kb), cmp.Compare(ia, ib))
	})
	if req.K > 0 && len(all) > req.K {
		all = all[:req.K]
	}
	total := len(all)
	if req.Offset >= total {
		return nil, total
	}
	all = all[req.Offset:]
	if req.Limit > 0 && len(all) > req.Limit {
		all = all[:req.Limit]
	}
	return all, total
}

// forwardSeries turns a fetched resident series into the ad-hoc query the
// non-home shards answer. The error model needs one measure-specific
// adjustment: a resident PROUD query always uses the engine's reported
// sigma — never the series' own — so the forwarded form drops the sigma
// and lets each shard's engine apply its (identical) reported sigma;
// every other measure adopts the series' own constant sigma, exactly as
// the home shard's resident query does.
func forwardSeries(m engine.Measure, rec *server.ClusterSeriesJSON) *server.SeriesJSON {
	fwd := server.SeriesJSON{Values: rec.Series.Values, Samples: rec.Series.Samples, Label: rec.Series.Label}
	if m != engine.MeasurePROUD {
		fwd.Sigma = rec.Series.Sigma
	}
	return &fwd
}

func (c *Coordinator) shardContext(parent context.Context) (context.Context, context.CancelFunc) {
	if c.opts.ShardTimeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, c.opts.ShardTimeout)
}

// classify maps one shard failure onto the coordinator's error taxonomy.
// Degradable failures (the shard is gone or too slow, the query itself is
// fine) come back wrapping qerr.ErrShardUnreachable or ErrShardTimeout;
// everything else is the query's or the caller's own problem and fails
// the whole query: the parent context died, or the shard refused the
// request with a 4xx (every shard would refuse it identically).
func classify(parent context.Context, name string, err error) error {
	if parent.Err() != nil {
		return err
	}
	if errors.Is(err, qerr.ErrShardUnreachable) || errors.Is(err, qerr.ErrShardTimeout) {
		return err
	}
	var se *ShardStatusError
	if errors.As(err, &se) {
		if se.Status >= 500 {
			return qerr.ShardUnreachablef("%v", se)
		}
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return qerr.ShardTimeoutf("shard %s exceeded the per-shard deadline: %v", name, err)
	}
	return err
}

// degradable reports whether a classified shard error drops that shard's
// contribution (degraded partial answer) rather than failing the query.
func degradable(err error) bool {
	return errors.Is(err, qerr.ErrShardUnreachable) || errors.Is(err, qerr.ErrShardTimeout)
}

// Mutate applies one ingestion/deletion request across the cluster. The
// coordinator allocates the global IDs (recovering its allocator from
// the shards' Stats on first use), routes every series and deletion to its
// ShardFor home, and applies the per-shard sub-mutations in shard order.
// Mutations are serialized coordinator-side and atomic per shard but NOT
// atomic across shards: a mid-sequence shard failure leaves earlier
// shards mutated, and the error says so. Allocated IDs are burned either
// way — a retry lands the same series under fresh IDs rather than
// half-colliding with the partial application.
func (c *Coordinator) Mutate(ctx context.Context, req server.SeriesRequest) (*server.SeriesResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.shards) == 0 {
		return nil, qerr.BadRequestf("the coordinator has no shards")
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		return nil, qerr.BadRequestf("nothing to insert or delete")
	}
	if len(req.InsertIDs) > 0 {
		return nil, qerr.BadRequestf("the coordinator allocates stable IDs itself; insert_ids is not accepted")
	}
	if err := c.recoverNextID(ctx); err != nil {
		return nil, err
	}

	ids := make([]int, len(req.Insert))
	for i := range ids {
		ids[i] = c.nextID + i
	}
	if len(ids) > 0 {
		c.nextID = ids[len(ids)-1] + 1
	}

	type shardWork struct {
		insert    []server.SeriesJSON
		insertIDs []int
		del       []int
	}
	work := make([]shardWork, len(c.shards))
	for i, sj := range req.Insert {
		s := ShardFor(ids[i], len(c.shards))
		work[s].insert = append(work[s].insert, sj)
		work[s].insertIDs = append(work[s].insertIDs, ids[i])
	}
	for _, id := range req.Delete {
		s := ShardFor(id, len(c.shards))
		work[s].del = append(work[s].del, id)
	}

	for i, w := range work {
		if len(w.insert) == 0 && len(w.del) == 0 {
			continue
		}
		sreq := server.SeriesRequest{Insert: w.insert, InsertIDs: w.insertIDs, Delete: w.del}
		if _, err := c.shards[i].Mutate(ctx, sreq); err != nil {
			return nil, fmt.Errorf("applying to shard %s (earlier shards already applied): %w", c.shards[i].Name(), err)
		}
	}

	var epoch uint64
	series := 0
	for _, sh := range c.shards {
		st, err := sh.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("mutation applied, but reading geometry from shard %s: %w", sh.Name(), err)
		}
		epoch += st.Epoch
		series += st.Series
	}
	return &server.SeriesResponse{IDs: ids, Deleted: len(req.Delete), Epoch: epoch, Series: series}, nil
}

// recoverNextID initialises the global ID allocator as the max next-ID
// over all shards. Every shard must answer: allocating below a silent
// shard's high-water mark would collide when it comes back.
func (c *Coordinator) recoverNextID(ctx context.Context) error {
	if c.nextID >= 0 {
		return nil
	}
	next := 0
	for _, sh := range c.shards {
		st, err := sh.Stats(ctx)
		if err != nil {
			return fmt.Errorf("recovering the ID allocator from shard %s: %w", sh.Name(), err)
		}
		next = max(next, st.NextID)
	}
	c.nextID = next
	return nil
}

// Stats merges the shards' /stats payloads: resident counts and epochs
// sum, the next unassigned ID is the max over shards, per-measure engine
// counters merge field-wise (the wire-stable engine.Stats shape is what
// makes this drift-free).
func (c *Coordinator) Stats(ctx context.Context) (*server.StatsResponse, error) {
	out := &server.StatsResponse{Measures: make(map[string]server.MeasureStatsJSON)}
	merged := make(map[string]engine.Stats)
	for _, sh := range c.shards {
		st, err := sh.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("reading stats from shard %s: %w", sh.Name(), err)
		}
		out.Epoch += st.Epoch
		out.Series += st.Series
		out.SeriesLen = max(out.SeriesLen, st.SeriesLen)
		out.NextID = max(out.NextID, st.NextID)
		for name, ms := range st.Measures {
			merged[name] = merged[name].Merge(ms.Stats)
		}
	}
	for name, st := range merged {
		out.Measures[name] = server.MeasureStatsJSON{Stats: st, Summary: st.String()}
	}
	return out, nil
}

// ShardHealthJSON is one shard's entry in the cluster health report.
type ShardHealthJSON struct {
	Shard string `json:"shard"`
	// Status is the shard's own health status, or "unreachable" when the
	// health probe itself failed.
	Status string                 `json:"status"`
	Error  string                 `json:"error,omitempty"`
	Health *server.HealthResponse `json:"health,omitempty"`
}

// HealthResponse is the cluster-wide health picture: "ok" only when
// every shard answered and reported ok. UptimeSeconds and Build describe
// the coordinator process itself, not the shards (each shard's own
// /healthz carries its own).
type HealthResponse struct {
	Status        string              `json:"status"`
	UptimeSeconds float64             `json:"uptime_seconds"`
	Build         telemetry.BuildJSON `json:"build"`
	Shards        []ShardHealthJSON   `json:"shards"`
}

// Health probes every shard.
func (c *Coordinator) Health(ctx context.Context) *HealthResponse {
	out := &HealthResponse{Status: "ok", UptimeSeconds: telemetry.Uptime().Seconds(), Build: telemetry.Build()}
	for _, sh := range c.shards {
		h, err := sh.Health(ctx)
		if err != nil {
			out.Status = "degraded"
			out.Shards = append(out.Shards, ShardHealthJSON{Shard: sh.Name(), Status: "unreachable", Error: err.Error()})
			continue
		}
		if h.Status != "ok" {
			out.Status = "degraded"
		}
		out.Shards = append(out.Shards, ShardHealthJSON{Shard: sh.Name(), Status: h.Status, Health: h})
	}
	return out
}
