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
// scatter-gather cluster (see internal/cluster): the coordinator posts a
// query to every shard's /query/stream as a StreamRequest, reads the
// candidates back over NDJSON, and exchanges the tightening global top-k
// cut both ways mid-flight — the stream's bound records carry the shard's
// cut out, and two private endpoints carry the rest:
//
//	POST /cluster/bound  pushes the coordinator's tighter global bound
//	                     into a running stream, keyed by its bound token;
//	GET  /cluster/series fetches a resident series in its wire form, so
//	                     the coordinator can forward an ID-targeted query
//	                     to the shards that do not hold the series.
//
// A shard's geometry (epoch, series, length, next unassigned ID) is its
// /stats. In-process shards skip HTTP entirely: cluster.LocalShard calls
// RunBound with a shared engine.Bound, and propagation is the atomic itself.

// StreamRequest is the wire form of POST /query/stream: a plain query plus
// the seed and push token of a top-k stream's cut. A coordinator's scatter
// leg fills them in; a client leaves them out.
type StreamRequest struct {
	QueryRequest
	// BoundToken keys the stream's cut in the shard's bound registry so
	// the coordinator can push a tighter global bound mid-flight (empty =
	// no push channel; the stream's own bound records still flow).
	BoundToken string `json:"bound_token,omitempty"`
	// BoundSq seeds the top-k cut (squared-distance space, already
	// ulpUp-inflated) before the scan starts.
	BoundSq *float64 `json:"bound_sq,omitempty"`
	// ProbBound seeds the probtopk cut (k-th best probability space).
	ProbBound *float64 `json:"prob_bound,omitempty"`
}

// ClusterBoundJSON is both the wire form of POST /cluster/bound and the
// bound record a top-k /query/stream interleaves with its items.
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

// ClusterSeriesJSON is the wire form of GET /cluster/series: a resident
// series rendered back into its ingestion shape, faithful for every
// series that entered through the JSON surface (values + constant sigma +
// samples — the only shapes cluster ingestion produces).
type ClusterSeriesJSON struct {
	ID     int        `json:"id"`
	Series SeriesJSON `json:"series"`
}

// boundRegistry tracks the cuts of running top-k streams so /cluster/bound
// pushes can reach them by token.
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

// boundPollInterval is how often a top-k stream samples its cut for
// improvements to report. Cheap (one atomic load) and far below any
// realistic shard scan time, yet coarse enough that bound records stay a
// rounding error next to item payloads.
const boundPollInterval = 2 * time.Millisecond

// shareCut gives a top-k stream a cut of its own: seeded from the body,
// registered under its bound token, and reported on the stream as a
// ClusterBoundJSON record whenever it tightens, so a coordinator can relay
// it to the other shards while this scan still runs. It returns what stops
// the reports and unregisters the cut; call it once the scan has returned.
// The range kinds have no cut: for them it does nothing.
func (s *Server) shareCut(req *StreamRequest, ereq *engine.Request, out *ndjson) (stop func()) {
	kind := ereq.Kind
	if kind != engine.KindTopK && kind != engine.KindProbTopK {
		return func() {}
	}
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
	}

	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(boundPollInterval)
		defer t.Stop()
		lastSq, lastP := math.Inf(1), math.Inf(-1)
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			if kind == engine.KindTopK {
				if v := bnd.Squared(); v < lastSq {
					lastSq = v
					_ = out.write(ClusterBoundJSON{BoundSq: &v})
				}
			} else if v := pbnd.Value(); v > lastP {
				lastP = v
				_ = out.write(ClusterBoundJSON{ProbBound: &v})
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		if req.BoundToken != "" {
			s.bounds.unregister(req.BoundToken)
		}
	}
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
