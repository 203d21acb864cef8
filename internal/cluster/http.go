package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"

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

// HTTPShard drives one remote shard process over its public API plus the
// private GET /cluster/series. A query leg is a /query/stream that prunes
// against the shard's own cut: nothing crosses the wire about the cut while
// the stream is open. The body seeds that cut with the shared one only when
// the shared cut is already finite as the leg starts. Coordinator.Query
// never is: every query's cut starts unbounded and every leg starts at once,
// so today no leg is seeded; a coordinator that lowers the cut before it
// scatters (a two-phase seed) would be.
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

// wireRecord is the union of every record kind a /query/stream NDJSON
// answer carries: item records (id plus distance or prob), the final done
// record, and the mid-stream error record. Any other record (an older
// shard's bound_sq/prob_bound report) is skipped.
type wireRecord struct {
	Done  bool   `json:"done"`
	Epoch uint64 `json:"epoch"`
	Total int    `json:"total"`

	Error string `json:"error"`

	ID       *int     `json:"id"`
	Distance *float64 `json:"distance"`
	Prob     *float64 `json:"prob"`
}

// Query runs the leg as a /query/stream on the shard, the request carrying
// the shared cut as its seed when the cut is finite (see HTTPShard), and
// collects the stream in arrival order (range items come in confirmation
// order); Coordinator.merge sorts the union.
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

	out, err := readStream(resp.Body, kind)
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
// record. A stream that fails, ends before its done record, or carries a
// top-k item without its key (a distance for topk, a probability for
// probtopk) is an error: such an item would enter the merge at key 0 and rank
// first.
func readStream(r io.Reader, kind engine.Kind) (*server.QueryResponse, error) {
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
		}
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
