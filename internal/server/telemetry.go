package server

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"time"

	"uncertts/internal/engine"
	"uncertts/internal/qerr"
	"uncertts/internal/telemetry"
)

// The server's metric families. Package-level on the default registry so
// every Server in the process (a single node, or the N in-process shards
// of `uncertserve -shards N`) accrues into one /metrics surface.
var (
	queriesTotal = telemetry.NewCounterVec(
		"uncertts_server_queries_total",
		"Queries executed, by query kind and measure (label \"invalid\" when the request did not parse).",
		"kind", "measure")
	queryDuration = telemetry.NewHistogramVec(
		"uncertts_server_query_duration_seconds",
		"Query execution latency, by query kind and measure.",
		nil, "kind", "measure")
	queryErrors = telemetry.NewCounterVec(
		"uncertts_server_query_errors_total",
		"Failed queries, by error class (the qerr sentinel taxonomy).",
		"error")
	queriesInFlight = telemetry.NewGauge(
		"uncertts_server_queries_in_flight_total",
		"Queries currently executing.")
	prunedRatio = telemetry.NewGaugeVec(
		"uncertts_engine_pruned_ratio",
		"Fraction of considered candidates the pruning cascade resolved without a full refine, by measure (cumulative).",
		"measure")
	indexSkippedRatio = telemetry.NewGaugeVec(
		"uncertts_engine_index_skipped_ratio",
		"Fraction of series a prefilter (tier 0's coarse bound for the lock-step measures and PROUD, the sketch-row bound for DTW) skipped before they became kernel candidates, by measure (cumulative).",
		"measure")
)

// process is the work of every query any Server in the process finished, by
// measure, with each measure's two pruning gauges resolved once at start-up
// rather than on the query path. A gauge reads NaN until its measure has a
// denominator. Ratios (not raw counters) because each server's /stats
// already serves its counters losslessly; the gauges answer the operator
// question — is the cascade still earning its keep — at a glance.
var process struct {
	sync.Mutex
	work            [engine.MeasureMUNICH + 1]engine.Stats
	pruned, skipped [engine.MeasureMUNICH + 1]*telemetry.Gauge
}

func init() {
	for _, m := range engine.Measures() {
		label := strings.ToLower(m.String())
		process.pruned[m], process.skipped[m] = prunedRatio.With(label), indexSkippedRatio.With(label)
		process.pruned[m].Set(math.NaN())
		process.skipped[m].Set(math.NaN())
	}
}

// record adds one finished query's work to the server's totals behind
// /stats and to the process totals behind the pruning gauges.
func (s *Server) record(m engine.Measure, q engine.Stats) {
	s.mu.Lock()
	s.work[m] = s.work[m].Merge(q)
	s.mu.Unlock()

	process.Lock()
	defer process.Unlock()
	t := process.work[m].Merge(q)
	process.work[m] = t
	if t.Candidates > 0 {
		process.pruned[m].Set(float64(t.Pruned()) / float64(t.Candidates))
	}
	if seen := t.Candidates + t.SeriesSkippedByIndex; seen > 0 {
		process.skipped[m].Set(float64(t.SeriesSkippedByIndex) / float64(seen))
	}
}

// queryLabels resolves a request's metric labels without trusting raw
// client strings (unbounded label cardinality); anything unparseable is
// folded into "invalid". Measures are lowercased to match the wire
// request spelling ("euclidean", not the display form "Euclidean").
func queryLabels(req QueryRequest) (kind, measure string) {
	kind, measure = "invalid", "invalid"
	if k, err := engine.ParseKind(req.Type); err == nil {
		kind = k.String()
	}
	if m, err := engine.ParseMeasure(req.Measure); err == nil {
		measure = strings.ToLower(m.String())
	}
	return kind, measure
}

// track opens the metric envelope of one query — in-flight gauge, count,
// latency, error class — and returns the closure that closes it. Every
// execution surface (Run, RunBound, the stream handlers) runs inside one
// track window, and exactly one.
func track(req QueryRequest) func(error) {
	kind, measure := queryLabels(req)
	queriesInFlight.Add(1)
	start := time.Now()
	return func(err error) {
		queriesInFlight.Add(-1)
		queriesTotal.With(kind, measure).Inc()
		queryDuration.With(kind, measure).Observe(time.Since(start).Seconds())
		if err != nil {
			queryErrors.With(errorLabel(err)).Inc()
		}
	}
}

// errorLabel classifies a query failure for uncertts_server_query_errors_total,
// mirroring statusFor's taxonomy with the qerr sentinels spelled out.
func errorLabel(err error) string {
	var he *httpError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case qerr.IsCancellation(err):
		return "cancelled"
	case errors.Is(err, qerr.ErrShardTimeout):
		return "shard_timeout"
	case errors.Is(err, qerr.ErrShardUnreachable):
		return "shard_unreachable"
	case errors.Is(err, qerr.ErrUnknownMeasure):
		return "unknown_measure"
	case errors.Is(err, qerr.ErrLengthMismatch):
		return "length_mismatch"
	case errors.Is(err, qerr.ErrNotFound):
		return "not_found"
	case errors.Is(err, qerr.ErrBadRequest):
		return "bad_request"
	case errors.As(err, &he):
		return "bad_request"
	default:
		return "other"
	}
}
