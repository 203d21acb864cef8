package cluster

import (
	"context"

	"uncertts/internal/engine"
	"uncertts/internal/server"
)

// Shard is one partition of the cluster behind the serving API the
// coordinator scatters over. Implementations prune against the shared cuts,
// bnd for topk and pbnd for probtopk (both nil for the range kinds): an
// in-process shard injects them into its execution; a remote one can only
// send them as its query's seed, and only when they are finite as its leg
// starts.
type Shard interface {
	// Name identifies the shard in degraded responses and health reports.
	Name() string
	// Query answers one query with the shared cuts injected.
	Query(ctx context.Context, req server.QueryRequest, bnd *engine.Bound, pbnd *engine.ProbBound) (*server.QueryResponse, error)
	// Mutate applies one ingestion/deletion mutation (insert_ids carry
	// the coordinator-assigned global IDs).
	Mutate(ctx context.Context, req server.SeriesRequest) (*server.SeriesResponse, error)
	// FetchSeries returns a resident series in its wire ingestion shape,
	// so an ID-targeted query can be forwarded to the other shards.
	FetchSeries(ctx context.Context, id int) (*server.ClusterSeriesJSON, error)
	// Stats returns the shard's geometry (epoch, counts, next ID) and
	// cumulative engine accounting.
	Stats(ctx context.Context) (*server.StatsResponse, error)
	// Health returns the shard's liveness and durability picture.
	Health(ctx context.Context) (*server.HealthResponse, error)
}

// LocalShard serves a shard in-process: a plain *server.Server (corpus +
// optional store) called directly. Bound propagation is free — every
// shard's engine lowers and reads the same injected atomic, which is
// exactly the within-process sharing the engine already does across
// workers.
type LocalShard struct {
	name string
	srv  *server.Server
}

// NewLocal wraps a server as an in-process shard.
func NewLocal(name string, srv *server.Server) *LocalShard {
	return &LocalShard{name: name, srv: srv}
}

// Server returns the wrapped server (the single-binary CLI closes its
// store through it; tests read its stats).
func (l *LocalShard) Server() *server.Server { return l.srv }

func (l *LocalShard) Name() string { return l.name }

func (l *LocalShard) Query(ctx context.Context, req server.QueryRequest, bnd *engine.Bound, pbnd *engine.ProbBound) (*server.QueryResponse, error) {
	return l.srv.RunBound(ctx, req, bnd, pbnd)
}

func (l *LocalShard) Mutate(_ context.Context, req server.SeriesRequest) (*server.SeriesResponse, error) {
	return l.srv.Mutate(req)
}

func (l *LocalShard) FetchSeries(_ context.Context, id int) (*server.ClusterSeriesJSON, error) {
	return l.srv.FetchSeries(id)
}

func (l *LocalShard) Stats(_ context.Context) (*server.StatsResponse, error) {
	return l.srv.Stats(), nil
}

func (l *LocalShard) Health(_ context.Context) (*server.HealthResponse, error) {
	return l.srv.Health(), nil
}
