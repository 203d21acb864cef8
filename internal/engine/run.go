package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"uncertts/internal/qerr"
	"uncertts/internal/query"
	"uncertts/internal/telemetry"
)

// The engine's one query surface. A request value names the kind, the target
// and the resource envelope; Run executes it:
//
//	req := engine.Request{Measure: engine.MeasureDTW, Kind: engine.KindTopK, Index: &qi, K: 5}
//	res, err := e.Run(ctx, req)
//
// Run validates the request up front with field-specific errors (every
// failure wraps a qerr sentinel), binds the target as per-request state,
// picks the candidate source and the kind's step (scan.go), and threads the
// context all the way down: the sharded executor polls it at every
// work-item boundary, PROUD polls it at every prefix stride, and the DTW and
// MUNICH kernels poll it inside a single long distance or refine
// computation — so cancelling the context or letting its deadline expire
// stops a running query promptly, drains the workers and returns an error
// wrapping both qerr.ErrCancelled and ctx.Err().

// Kind is the query family of a Request.
type Kind int

const (
	// KindTopK asks for the K nearest neighbours by distance
	// (distance measures only).
	KindTopK Kind = iota
	// KindRange asks for every candidate within distance Eps
	// (distance measures only).
	KindRange
	// KindProbTopK asks for the K candidates with the highest match
	// probability Pr(distance <= Eps) (probabilistic measures only).
	KindProbTopK
	// KindProbRange asks for every candidate whose match probability
	// Pr(distance <= Eps) reaches Tau (probabilistic measures only).
	KindProbRange
)

// Kinds lists every query kind, in declaration order.
func Kinds() []Kind { return []Kind{KindTopK, KindRange, KindProbTopK, KindProbRange} }

// String names the kind in its wire form ("topk", "range", "probtopk",
// "probrange").
func (k Kind) String() string {
	switch k {
	case KindTopK:
		return "topk"
	case KindRange:
		return "range"
	case KindProbTopK:
		return "probtopk"
	case KindProbRange:
		return "probrange"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Probabilistic reports whether the kind asks a probabilistic threshold
// question (served by MeasurePROUD/MeasureMUNICH) rather than a distance
// question.
func (k Kind) Probabilistic() bool { return k == KindProbTopK || k == KindProbRange }

// ParseKind resolves a case-insensitive kind name ("topk", "range",
// "probtopk", "probrange"). Failure wraps qerr.ErrBadRequest.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("engine: %w", qerr.BadRequestf("unknown query kind %q (want topk, range, probtopk or probrange)", name))
}

// Request is one declarative query against an engine: what to ask (Kind
// and its parameters), of whom (a resident snapshot position or an ad-hoc
// series), and under which resource envelope (worker budget; the deadline
// travels in the context given to Run). The zero value is not a valid
// request — a target must be set, and K must be at least 1 for the top-k
// kinds.
type Request struct {
	// Measure names the measure the request expects to run under. Run
	// rejects a request whose measure differs from the engine's, so a
	// request routed to the wrong engine fails loudly instead of
	// answering under a different metric. (For MeasureEuclidean this is
	// the zero value; requests built for a Euclidean engine need not set
	// it.)
	Measure Measure
	// Kind selects the query family.
	Kind Kind
	// Index poses the resident series at this snapshot position as the
	// query; the series itself is excluded from the answer. Exactly one
	// of Index and AdHoc must be set.
	Index *int
	// AdHoc poses an arbitrary series as the query; nothing is excluded.
	AdHoc *Query
	// K is the neighbour count for KindTopK and KindProbTopK.
	K int
	// Eps is the distance threshold for KindRange, KindProbTopK and
	// KindProbRange.
	Eps float64
	// Tau is the probability threshold for KindProbRange. PROUD engines
	// accept tau in (0, 1), MUNICH engines in (0, 1].
	Tau float64
	// Workers bounds the executor parallelism for this request
	// (0 = the engine default).
	Workers int
	// Bound optionally shares the KindTopK pruning cut with executions
	// outside this engine: cluster shards answering the same query inject
	// one Bound each, so the global k-th distance tightens every shard's
	// early-abandon cascade mid-flight. Nil keeps the cut private. Kinds
	// other than KindTopK ignore it (range kinds prune on the static
	// Eps/Tau threshold already).
	Bound *Bound
	// ProbBound is Bound for KindProbTopK.
	ProbBound *ProbBound
	// Offset drops the first Offset entries of the result list — the
	// pagination window is applied after the (deterministic) final
	// ordering, so pages are stable across retries on the same snapshot.
	Offset int
	// Limit truncates the result list after Limit entries (0 = all).
	Limit int
}

// Result is the answer to one Request. Exactly one of the three list
// fields is populated, matching the request kind: Neighbors for KindTopK,
// IDs for KindRange and KindProbRange, Matches for KindProbTopK. Entries
// identify candidates by snapshot position (the server layer translates
// them to stable corpus IDs).
type Result struct {
	// Kind echoes the request kind.
	Kind Kind
	// Neighbors holds the KindTopK answer, ascending by distance with
	// ties broken by position.
	Neighbors []query.Neighbor
	// IDs holds the KindRange / KindProbRange answer, ascending.
	IDs []int
	// Matches holds the KindProbTopK answer, descending by probability
	// with ties broken by ascending position.
	Matches []ProbMatch
	// Total is the full answer size before the Offset/Limit window was
	// applied, so paginating clients know when to stop.
	Total int
}

// Item is one incremental result delivered by RunStream: the candidate's
// snapshot position plus the measure of its match — Distance for KindTopK
// and KindRange, Prob for KindProbTopK. KindProbRange items carry the
// position alone (the range predicate can be decided by a sound bound
// without ever computing the probability).
type Item struct {
	ID       int
	Distance float64
	Prob     float64
}

// validate rejects a structurally invalid request with a field-specific
// error; every failure wraps qerr.ErrBadRequest (or ErrUnknownMeasure for
// a measure outside the engine's set).
func (e *Engine) validate(req Request) error {
	if req.Measure != e.opts.Measure {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("request measure %v but this engine serves %v", req.Measure, e.opts.Measure))
	}
	kindKnown := false
	for _, k := range Kinds() {
		if req.Kind == k {
			kindKnown = true
		}
	}
	if !kindKnown {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("unknown query kind %v", int(req.Kind)))
	}
	if req.Kind.Probabilistic() != e.opts.Measure.Probabilistic() {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("kind %s is not served by measure %v", req.Kind, e.opts.Measure))
	}
	switch {
	case req.Index == nil && req.AdHoc == nil:
		return fmt.Errorf("engine: %w", qerr.BadRequestf("the request needs a target: set Index or AdHoc"))
	case req.Index != nil && req.AdHoc != nil:
		return fmt.Errorf("engine: %w", qerr.BadRequestf("Index and AdHoc are mutually exclusive"))
	}
	if req.Kind == KindTopK || req.Kind == KindProbTopK {
		if req.K < 1 {
			return fmt.Errorf("engine: %w", qerr.BadRequestf("k = %d must be at least 1", req.K))
		}
	}
	if req.Kind != KindTopK {
		if math.IsNaN(req.Eps) || req.Eps < 0 {
			return fmt.Errorf("engine: %w", qerr.BadRequestf("eps = %v must be non-negative", req.Eps))
		}
	}
	if req.Kind == KindProbRange {
		// Only the broad [0, 1] sanity check lives here; the execution
		// core's checkTau applies the measure-specific domain (PROUD
		// (0, 1), MUNICH (0, 1]) before any scan work — and computes
		// PROUD's eps_limit exactly once per request while at it.
		if math.IsNaN(req.Tau) || req.Tau < 0 || req.Tau > 1 {
			return fmt.Errorf("engine: %w", qerr.BadRequestf("tau = %v outside [0, 1]", req.Tau))
		}
	}
	if req.Workers < 0 {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("workers = %d must be non-negative", req.Workers))
	}
	if req.Offset < 0 {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("offset = %d must be non-negative", req.Offset))
	}
	if req.Limit < 0 {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("limit = %d must be non-negative (0 = no limit)", req.Limit))
	}
	return nil
}

// window applies the request's Offset/Limit pagination to a final result
// list.
func window[T any](xs []T, offset, limit int) []T {
	if offset >= len(xs) {
		return nil
	}
	xs = xs[offset:]
	if limit > 0 && limit < len(xs) {
		xs = xs[:limit]
	}
	return xs
}

// Run executes one declarative request against the engine's snapshot and
// returns its result. It is the single entry point every query goes
// through: the request is validated up front (failures wrap the qerr
// sentinels) and executed under ctx — cancellation or an expired deadline
// drains the executor workers and returns an error wrapping both
// qerr.ErrCancelled and ctx.Err(). Results are bit-identical to the
// unpruned scan (Options.NoPrune) for every measure and worker count.
func (e *Engine) Run(ctx context.Context, req Request) (*Result, error) {
	return e.RunStream(ctx, req, nil)
}

// RunStream is Run with incremental delivery: emit (when non-nil) is
// called once per confirmed result entry. Range-shaped kinds (KindRange,
// KindProbRange) emit each match as its executor shard confirms it —
// mid-scan, in nondeterministic order under parallelism — while the top-k
// kinds emit the final ranked list as it is confirmed at the merge, in
// order. Emission ignores the Offset/Limit window (the full confirmed
// stream is delivered; the window applies to the returned Result), emit is
// never called concurrently with itself, and a non-nil emit error aborts
// the query and is returned verbatim.
func (e *Engine) RunStream(ctx context.Context, req Request, emit func(Item) error) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.validate(req); err != nil {
		return nil, err
	}
	var pq *prepared
	var err error
	if req.Index != nil {
		pq, err = e.prepareIndex(*req.Index)
	} else {
		pq, err = e.prepare(*req.AdHoc)
	}
	if err != nil {
		return nil, err
	}
	e.summarise(pq)

	res := &Result{Kind: req.Kind}
	// The refine span covers the whole execution — index descent spans nest
	// inside it when the tree source runs.
	refineSpan := telemetry.TraceFrom(ctx).Start("refine")
	switch req.Kind {
	case KindTopK, KindProbTopK:
		var top []ranked
		top, err = e.topK(ctx, pq, &req)
		res.Total = len(top)
		if req.Kind == KindTopK {
			res.Neighbors = make([]query.Neighbor, len(top))
		} else {
			res.Matches = make([]ProbMatch, len(top))
		}
		// The ranked list is final here, so the top-k kinds emit it in order.
		for i, r := range top {
			it := Item{ID: r.id}
			if req.Kind == KindTopK {
				it.Distance = r.key
				res.Neighbors[i] = query.Neighbor{ID: r.id, Distance: r.key}
			} else {
				it.Prob = -r.key // the collector ranks by -p
				res.Matches[i] = ProbMatch{ID: r.id, Prob: it.Prob}
			}
			if emit != nil && err == nil {
				err = emit(it)
			}
		}
		res.Neighbors = window(res.Neighbors, req.Offset, req.Limit)
		res.Matches = window(res.Matches, req.Offset, req.Limit)
	case KindRange, KindProbRange:
		// Workers confirm matches concurrently; serialize their emissions
		// so emit needs no locking of its own.
		var locked func(Item) error
		if emit != nil {
			var mu sync.Mutex
			locked = func(it Item) error {
				mu.Lock()
				defer mu.Unlock()
				return emit(it)
			}
		}
		res.IDs, err = e.matches(ctx, pq, &req, locked)
		res.Total = len(res.IDs)
		res.IDs = window(res.IDs, req.Offset, req.Limit)
	}
	refineSpan.EndErr(err)
	recordStatsMetrics(e.opts.Measure, e.Stats())
	if err != nil {
		// Normalise cancellations so the caller always sees both the
		// qerr sentinel and the context's own error, wherever in the
		// stack the cancellation was detected first.
		if qerr.IsCancellation(err) && ctx.Err() != nil {
			return nil, fmt.Errorf("engine: %w", qerr.Cancelled(ctx.Err()))
		}
		return nil, err
	}
	return res, nil
}
