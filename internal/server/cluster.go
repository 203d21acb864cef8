package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"uncertts/internal/engine"
	"uncertts/internal/qerr"
)

// The shard-side cluster surface. A server doubles as one shard of a
// scatter-gather cluster (see internal/cluster): the coordinator
// broadcasts a query to every shard's /cluster/query, streams candidates
// back over NDJSON, and exchanges the tightening global top-k bound both
// ways mid-flight —
//
//	POST /cluster/query  one QueryRequest plus a bound token; the NDJSON
//	                     response interleaves bound records (the shard's
//	                     own cut improving) with item records, then a
//	                     final done record carrying the shard's epoch and
//	                     wire-stable engine stats;
//	POST /cluster/bound  pushes the coordinator's tighter global bound
//	                     into a running query, keyed by the bound token;
//	GET  /cluster/series fetches a resident series in its wire form, so
//	                     the coordinator can forward an ID-targeted query
//	                     to the shards that do not hold the series;
//	GET  /cluster/info   shard geometry: epoch, series count, length and
//	                     the next unassigned ID (coordinator recovery).
//
// In-process shards skip HTTP entirely: cluster.LocalShard calls RunBound
// with a shared engine.Bound, and propagation is the atomic itself.

// ClusterQueryRequest is the wire form of POST /cluster/query: a plain
// query plus the mid-flight bound plumbing.
type ClusterQueryRequest struct {
	QueryRequest
	// BoundToken keys this execution in the shard's bound registry so the
	// coordinator can push a tighter global bound mid-flight (empty =
	// no push channel; the stream's own bound records still flow).
	BoundToken string `json:"bound_token,omitempty"`
	// BoundSq seeds the top-k cut (squared-distance space, already
	// ulpUp-inflated) before the scan starts.
	BoundSq *float64 `json:"bound_sq,omitempty"`
	// ProbBound seeds the probtopk cut (k-th best probability space).
	ProbBound *float64 `json:"prob_bound,omitempty"`
}

// ClusterBoundJSON is both the wire form of POST /cluster/bound and the
// bound record interleaved into a /cluster/query NDJSON stream.
type ClusterBoundJSON struct {
	// Token keys the running execution (POST /cluster/bound only).
	Token string `json:"token,omitempty"`
	// BoundSq is the tightest proven upper bound on the global k-th best
	// squared distance (topk).
	BoundSq *float64 `json:"bound_sq,omitempty"`
	// ProbBound is the best proven lower bound on the global k-th best
	// match probability (probtopk).
	ProbBound *float64 `json:"prob_bound,omitempty"`
}

// ClusterDoneJSON is the final /cluster/query stream record.
type ClusterDoneJSON struct {
	Done  bool   `json:"done"`
	Epoch uint64 `json:"epoch"`
	// Total is the number of item records streamed before this one.
	Total int `json:"total"`
	// Stats is the shard's cumulative engine accounting for the query's
	// measure, in the wire-stable engine.Stats shape.
	Stats engine.Stats `json:"stats"`
}

// ClusterSeriesJSON is the wire form of GET /cluster/series: a resident
// series rendered back into its ingestion shape, faithful for every
// series that entered through the JSON surface (values + constant sigma +
// samples — the only shapes cluster ingestion produces).
type ClusterSeriesJSON struct {
	ID     int        `json:"id"`
	Series SeriesJSON `json:"series"`
}

// ClusterInfoJSON is the wire form of GET /cluster/info.
type ClusterInfoJSON struct {
	Epoch     uint64 `json:"epoch"`
	Series    int    `json:"series"`
	SeriesLen int    `json:"series_len"`
	NextID    int    `json:"next_id"`
}

// boundRegistry tracks the shared cuts of running cluster queries so
// /cluster/bound pushes can reach them by token.
type boundRegistry struct {
	mu sync.Mutex
	m  map[string]*boundPair
}

type boundPair struct {
	bnd  *engine.Bound
	pbnd *engine.ProbBound
}

func (r *boundRegistry) register(token string, p *boundPair) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]*boundPair)
	}
	r.m[token] = p
}

func (r *boundRegistry) unregister(token string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.m, token)
}

func (r *boundRegistry) lookup(token string) *boundPair {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[token]
}

// RunBound is Run with an externally shared pruning cut: the top-k kinds
// coordinate through bnd/pbnd (when non-nil) instead of a private bound.
// In-process cluster shards answer through it — every shard's engine
// lowers and reads the same atomic, so propagation needs no transport.
func (s *Server) RunBound(ctx context.Context, req QueryRequest, bnd *engine.Bound, pbnd *engine.ProbBound) (*QueryResponse, error) {
	e, snap, ereq, done, err := s.start(ctx, req)
	if err != nil {
		return nil, err
	}
	ereq.Bound, ereq.ProbBound = bnd, pbnd
	res, err := e.Run(ctx, ereq)
	done(err)
	if err != nil {
		return nil, err
	}
	return toResponse(snap, ereq.Measure, res), nil
}

// boundPollInterval is how often a /cluster/query stream samples its
// shard-local cut for improvements to report. Cheap (one atomic load) and
// far below any realistic shard scan time, yet coarse enough that bound
// records stay a rounding error next to item payloads.
const boundPollInterval = 2 * time.Millisecond

// handleClusterQuery serves POST /cluster/query: the scatter leg of a
// coordinator's query. The NDJSON response interleaves ClusterBoundJSON
// records (whenever this shard's own cut tightens) with StreamItemJSON
// records, then closes with a ClusterDoneJSON; it ends as ndjson.fail says.
// The leg adopts the coordinator's trace ID from the request header, so the
// shard's own ring holds this query's spans under the ID the coordinator
// (and the client) quote: one ID pulls the cross-shard picture from every
// /debug/trace it touched.
func (s *Server) handleClusterQuery(w http.ResponseWriter, r *http.Request) {
	var req ClusterQueryRequest
	ctx, end, ok := OpenQuery(w, r, &req, s.tracer, "cluster_query", s.opts.DefaultTimeout)
	if !ok {
		return
	}
	e, snap, ereq, done, err := s.start(ctx, req.QueryRequest)
	if err != nil {
		end(err)
		http.Error(w, err.Error(), statusFor(err))
		return
	}

	// The shared cut: seeded from the coordinator's current knowledge,
	// registered for mid-flight pushes, sampled for mid-flight reports.
	bnd, pbnd := engine.NewBound(), engine.NewProbBound()
	if req.BoundSq != nil {
		bnd.LowerSquared(*req.BoundSq)
	}
	if req.ProbBound != nil {
		pbnd.Raise(*req.ProbBound)
	}
	ereq.Bound, ereq.ProbBound = bnd, pbnd
	if req.BoundToken != "" {
		s.bounds.register(req.BoundToken, &boundPair{bnd: bnd, pbnd: pbnd})
		defer s.bounds.unregister(req.BoundToken)
	}
	out := newNDJSON(w, snap, ereq.Kind)

	// Report this shard's cut as it tightens, so the coordinator can relay
	// it to the other shards while this scan is still running.
	pollDone := make(chan struct{})
	var pollWG sync.WaitGroup
	if ereq.Kind == engine.KindTopK || ereq.Kind == engine.KindProbTopK {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(boundPollInterval)
			defer t.Stop()
			lastSq, lastP := math.Inf(1), math.Inf(-1)
			for {
				select {
				case <-pollDone:
					return
				case <-t.C:
				}
				if ereq.Kind == engine.KindTopK {
					if v := bnd.Squared(); v < lastSq {
						lastSq = v
						_ = out.write(ClusterBoundJSON{BoundSq: &v})
					}
				} else {
					if v := pbnd.Value(); v > lastP {
						lastP = v
						_ = out.write(ClusterBoundJSON{ProbBound: &v})
					}
				}
			}
		}()
	}

	_, err = e.RunStream(ctx, ereq, out.item)
	close(pollDone)
	pollWG.Wait()
	done(err)
	end(err)
	if out.fail(err) {
		return
	}
	_ = out.write(ClusterDoneJSON{
		Done:  true,
		Epoch: snap.Epoch(),
		Total: out.items,
		Stats: s.measureStats()[ereq.Measure.String()],
	})
}

// handleClusterBound serves POST /cluster/bound: the gather-to-scatter leg
// of bound propagation. Pushing into a finished (or unknown) token is a
// no-op 204 — the query the bound was meant for has already drained, and
// racing a retry against completion must not fail the coordinator.
func (s *Server) handleClusterBound(w http.ResponseWriter, r *http.Request) {
	var rec ClusterBoundJSON
	if !DecodeBody(w, r, &rec) {
		return
	}
	if rec.Token == "" {
		http.Error(w, "a bound push needs a token", http.StatusBadRequest)
		return
	}
	if p := s.bounds.lookup(rec.Token); p != nil {
		if rec.BoundSq != nil {
			p.bnd.LowerSquared(*rec.BoundSq)
		}
		if rec.ProbBound != nil {
			p.pbnd.Raise(*rec.ProbBound)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// FetchSeries renders the resident series with the given stable ID back
// into its wire ingestion shape. It errors when the series carries a
// per-timestamp error model a constant sigma cannot express — impossible
// for series ingested through the JSON surface, which is all a cluster
// shard ever holds.
func (s *Server) FetchSeries(id int) (*ClusterSeriesJSON, error) {
	snap := s.c.Snapshot()
	pos, ok := snap.PosOf(id)
	if !ok {
		return nil, fmt.Errorf("%w %d", qerr.ErrNotFound, id)
	}
	ent := snap.Entry(pos)
	sj := SeriesJSON{Values: ent.PDF.Observations, Label: ent.PDF.Label}
	if ent.Samples != nil {
		sj.Samples = ent.Samples.Samples
	}
	if ent.OwnErrors {
		sigma := math.Sqrt(ent.PDF.Errors[0].Variance())
		for _, d := range ent.PDF.Errors {
			if math.Sqrt(d.Variance()) != sigma { //lint:allow floatcmp exact representability check: forwarding is only faithful for a truly constant sigma
				return nil, &httpError{
					status: http.StatusUnprocessableEntity,
					msg:    fmt.Sprintf("series %d carries a non-constant error model and cannot be forwarded as a wire series", id),
				}
			}
		}
		sj.Sigma = sigma
	}
	return &ClusterSeriesJSON{ID: id, Series: sj}, nil
}

// handleClusterSeries serves GET /cluster/series?id=N.
func (s *Server) handleClusterSeries(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, "id must be an integer", http.StatusBadRequest)
		return
	}
	rec, err := s.FetchSeries(id)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	WriteJSON(w, rec)
}

// Info reports the shard geometry the coordinator needs: the corpus
// epoch, resident count, series length, and the next unassigned stable ID
// (the coordinator recovers its global ID allocator as the max over
// shards).
func (s *Server) Info() ClusterInfoJSON {
	snap := s.c.Snapshot()
	return ClusterInfoJSON{
		Epoch:     snap.Epoch(),
		Series:    snap.Len(),
		SeriesLen: snap.SeriesLen(),
		NextID:    snap.NextID(),
	}
}

// handleClusterInfo serves GET /cluster/info.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.Info())
}
