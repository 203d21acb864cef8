package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"uncertts/internal/engine"
	"uncertts/internal/qerr"
	"uncertts/internal/server"
	"uncertts/internal/telemetry"
)

// ShardStatusError carries a shard's HTTP refusal (any non-2xx answer)
// back through the coordinator with its status intact: a shard-side 404
// (unknown ID) or 400 (bad request) is the query's own fault, and the
// coordinator re-raises it verbatim instead of degrading around it.
type ShardStatusError struct {
	Shard  string
	Status int
	Msg    string
}

func (e *ShardStatusError) Error() string {
	return fmt.Sprintf("shard %s answered %d: %s", e.Shard, e.Status, e.Msg)
}

// boundPushInterval is how often an HTTPShard samples the coordinator's
// shared cut for improvements to push into its running shard query. It
// mirrors the shard's own report cadence (server.boundPollInterval).
const boundPushInterval = 2 * time.Millisecond

// HTTPShard drives one remote shard process over its public API plus the
// two private /cluster endpoints. A query leg is a /query/stream; bound
// propagation runs both ways while the stream is open — shard-side
// improvements arrive as bound records in the stream, coordinator-side
// improvements are POSTed to /cluster/bound keyed by a per-query token.
type HTTPShard struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTP wraps the shard process at baseURL (e.g. "http://127.0.0.1:8081").
// A nil client uses http.DefaultClient.
func NewHTTP(name, baseURL string, client *http.Client) *HTTPShard {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPShard{name: name, base: baseURL, client: client}
}

func (h *HTTPShard) Name() string { return h.name }

// newToken mints the per-query bound token. Collisions across concurrent
// queries to the same shard must be negligible; 16 random bytes are.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a token
		// that disables mid-flight pushes rather than failing the query.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// wireRecord is the union of every record kind a /query/stream NDJSON
// answer interleaves: bound records (bound_sq / prob_bound, no id), item
// records (id plus distance or prob), the final done record, and the
// mid-stream error record.
type wireRecord struct {
	Done  bool   `json:"done"`
	Epoch uint64 `json:"epoch"`
	Total int    `json:"total"`

	Error string `json:"error"`

	BoundSq   *float64 `json:"bound_sq"`
	ProbBound *float64 `json:"prob_bound"`

	ID       *int     `json:"id"`
	Distance *float64 `json:"distance"`
	Prob     *float64 `json:"prob"`
}

// Query runs the leg as a /query/stream on the shard, the request carrying
// the shared cut's seed and a push token, and collects the stream in
// arrival order (range items come in confirmation order);
// Coordinator.merge sorts the union.
func (h *HTTPShard) Query(ctx context.Context, req server.QueryRequest, bnd *engine.Bound, pbnd *engine.ProbBound) (*server.QueryResponse, error) {
	m, err := engine.ParseMeasure(req.Measure)
	if err != nil {
		return nil, err
	}
	kind, err := engine.ParseKind(req.Type)
	if err != nil {
		return nil, err
	}

	sreq := server.StreamRequest{QueryRequest: req}
	token := ""
	if bnd != nil || pbnd != nil {
		token = newToken()
		sreq.BoundToken = token
	}
	if bnd != nil {
		if v := bnd.Squared(); !math.IsInf(v, 1) {
			sreq.BoundSq = &v
		}
	}
	if pbnd != nil {
		if v := pbnd.Value(); !math.IsInf(v, -1) {
			sreq.ProbBound = &v
		}
	}
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/query/stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id := telemetry.TraceFrom(ctx).ID(); id != "" {
		hreq.Header.Set(telemetry.TraceHeader, id)
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("shard %s: %w", h.name, ctx.Err())
		}
		return nil, qerr.ShardUnreachablef("shard %s: %v", h.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, h.statusError(resp)
	}

	// Push the coordinator's cut into the running shard query whenever it
	// tightens past what we last pushed. Echoes are harmless: LowerSquared
	// and Raise are idempotent min/max updates.
	pushDone := make(chan struct{})
	var pushWG sync.WaitGroup
	if token != "" {
		pushWG.Add(1)
		go func() {
			defer pushWG.Done()
			t := time.NewTicker(boundPushInterval)
			defer t.Stop()
			lastSq, lastP := math.Inf(1), math.Inf(-1)
			for {
				select {
				case <-pushDone:
					return
				case <-t.C:
				}
				rec := server.ClusterBoundJSON{Token: token}
				if bnd != nil {
					if v := bnd.Squared(); v < lastSq {
						lastSq = v
						rec.BoundSq = &v
					}
				}
				if pbnd != nil {
					if v := pbnd.Value(); v > lastP {
						lastP = v
						rec.ProbBound = &v
					}
				}
				if rec.BoundSq == nil && rec.ProbBound == nil {
					continue
				}
				h.pushBound(ctx, rec)
			}
		}()
	}

	out, err := readStream(resp.Body, kind, bnd, pbnd)
	close(pushDone)
	pushWG.Wait()
	switch {
	case err == nil:
		out.Measure = m.String()
		return out, nil
	case ctx.Err() != nil:
		return nil, fmt.Errorf("shard %s: %w", h.name, ctx.Err())
	default:
		return nil, qerr.ShardUnreachablef("shard %s: %v", h.name, err)
	}
}

// readStream reads one /query/stream answer of the given kind up to its done
// record, folding the shard's bound records into bnd/pbnd (nil = dropped) as
// they arrive. A stream that fails, ends before its done record, or carries a
// top-k item without its key (a distance for topk, a probability for
// probtopk) is an error: such an item would enter the merge at key 0 and rank
// first.
func readStream(r io.Reader, kind engine.Kind, bnd *engine.Bound, pbnd *engine.ProbBound) (*server.QueryResponse, error) {
	out := &server.QueryResponse{Type: kind.String()}
	dec := json.NewDecoder(r)
	for {
		var rec wireRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return nil, errors.New("stream ended without a done record")
		} else if err != nil {
			return nil, fmt.Errorf("reading stream: %w", err)
		}
		switch {
		case rec.Error != "":
			return nil, fmt.Errorf("failed mid-stream: %s", rec.Error)
		case rec.Done:
			out.Epoch = rec.Epoch
			out.Total = rec.Total
			return out, nil
		case rec.ID != nil:
			switch {
			case kind == engine.KindTopK && rec.Distance != nil:
				out.Neighbors = append(out.Neighbors, server.NeighborJSON{ID: *rec.ID, Distance: *rec.Distance})
			case kind == engine.KindProbTopK && rec.Prob != nil:
				out.Matches = append(out.Matches, server.MatchJSON{ID: *rec.ID, Prob: *rec.Prob})
			case kind == engine.KindTopK || kind == engine.KindProbTopK:
				return nil, fmt.Errorf("%s item %d carries no key", kind, *rec.ID)
			default:
				out.IDs = append(out.IDs, *rec.ID)
			}
		case rec.BoundSq != nil && bnd != nil:
			// The shard's own cut tightening: already squared and
			// ulpUp-inflated, so it folds straight into the shared bound.
			bnd.LowerSquared(*rec.BoundSq)
		case rec.ProbBound != nil && pbnd != nil:
			pbnd.Raise(*rec.ProbBound)
		}
	}
}

// pushBound POSTs one bound improvement into the running shard query.
// Failures are ignored: the push is an optimisation, the stream's own
// records keep the answer correct without it.
func (h *HTTPShard) pushBound(ctx context.Context, rec server.ClusterBoundJSON) {
	body, err := json.Marshal(rec)
	if err != nil {
		return
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/cluster/bound", bytes.NewReader(body))
	if err != nil {
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(hreq)
	if err != nil {
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		boundPushes.Inc()
	}
}

func (h *HTTPShard) Mutate(ctx context.Context, req server.SeriesRequest) (*server.SeriesResponse, error) {
	var out server.SeriesResponse
	if err := h.post(ctx, "/series", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (h *HTTPShard) FetchSeries(ctx context.Context, id int) (*server.ClusterSeriesJSON, error) {
	var out server.ClusterSeriesJSON
	if err := h.get(ctx, "/cluster/series?id="+url.QueryEscape(strconv.Itoa(id)), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (h *HTTPShard) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var out server.StatsResponse
	if err := h.get(ctx, "/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (h *HTTPShard) Health(ctx context.Context) (*server.HealthResponse, error) {
	var out server.HealthResponse
	if err := h.get(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (h *HTTPShard) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	return h.do(ctx, hreq, out)
}

func (h *HTTPShard) get(ctx context.Context, path string, out interface{}) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
	if err != nil {
		return err
	}
	return h.do(ctx, hreq, out)
}

func (h *HTTPShard) do(ctx context.Context, hreq *http.Request, out interface{}) error {
	resp, err := h.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("shard %s: %w", h.name, ctx.Err())
		}
		return qerr.ShardUnreachablef("shard %s: %v", h.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return h.statusError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return qerr.ShardUnreachablef("shard %s: malformed response: %v", h.name, err)
	}
	return nil
}

// statusError reads a non-2xx shard answer into a ShardStatusError.
func (h *HTTPShard) statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return &ShardStatusError{Shard: h.name, Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
}
