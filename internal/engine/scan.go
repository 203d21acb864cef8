package engine

import (
	"context"
	"fmt"
	"sync"

	"uncertts/internal/distance"
	"uncertts/internal/parallel"
	"uncertts/internal/telemetry"
)

// span is a run of candidates handed to a step: positions [lo, hi) of the
// snapshot, or elements [lo, hi) of list when the source runs in bound order
// (DTW top-k). It never contains the query itself.
type span struct {
	list   []int
	lo, hi int
}

// at returns the snapshot position of the span's i-th candidate.
func (s span) at(i int) int {
	if s.list != nil {
		return s.list[i]
	}
	return i
}

// candErr names the candidate a kernel failed on.
func candErr(ci int, err error) error { return fmt.Errorf("engine: candidate %d: %w", ci, err) }

// run is one request in flight: everything a step reads besides the
// candidate. It is built once per request and shared, read-only, by the
// request's workers.
type run struct {
	e    *Engine
	pq   *prepared
	req  *Request
	done <-chan struct{}

	pre      prefilterStage   // how the steps test lbs
	ahead    bool             // tier 0 engaged: fetch each refine's row ahead
	lbs      []float64        // the prefilter's raw bound by position (nil: none engaged)
	coll     *collector       // the top-k kinds' collector and live cut (nil: a range kind)
	cutoff2  float64          // KindRange: ulpUp(Eps^2)
	epsLimit float64          // KindProbRange on a PROUD engine
	emit     func(Item) error // the range kinds' match callback (nil = none)
}

// prefilterStage is the prefilter stage of a request's cascade.
type prefilterStage uint8

const (
	noPrefilter    prefilterStage = iota
	distPrefilter                 // the bound against the squared distance cut (skip)
	proudPrefilter                // tier 0's bracket through PROUD's decision (proudSkip)
)

// execute answers one validated request: it binds the kind's cut and the
// prefilter's bound storage (for KindTopK it also bounds every position and
// takes the start they give: tier 0's seeded cut, or DTW's best-first
// order), and scans. The ranking kinds return their collector's list,
// ranked by (key, position) and at most K long; the range kinds their
// matches in ascending position. emit (nil = none) sees each range match as
// its shard confirms it; its error aborts the scan and is returned verbatim.
func (e *Engine) execute(ctx context.Context, pq *prepared, req *Request, emit func(Item) error) ([]ranked, []int, error) {
	r := &run{e: e, pq: pq, req: req, done: ctx.Done(), emit: emit}
	var err error
	switch req.Kind {
	case KindTopK, KindProbTopK:
		var shared *cut // the cluster-wide cut, when the request carries one
		switch {
		case req.Kind == KindTopK && req.Bound != nil:
			shared = &req.Bound.c
		case req.Kind == KindProbTopK && req.ProbBound != nil:
			shared = &req.ProbBound.c
		}
		r.coll = newCollector(req.K, e.snap.Len(), req.Kind == KindTopK, shared)
	case KindRange:
		r.cutoff2 = ulpUp(req.Eps * req.Eps)
	case KindProbRange:
		if r.epsLimit, err = e.checkTau(req.Tau); err != nil {
			return nil, nil, err
		}
	}
	var cands []int // nil: position order
	if e.pre != nil {
		sp := telemetry.TraceFrom(ctx).Start("index_descent")
		s, n := scratchPool.Get().(*scratch), e.snap.Len()
		if cap(s.lbs) < n {
			s.lbs = make([]float64, n)
		}
		defer scratchPool.Put(s)
		r.pre, r.lbs, r.ahead = e.pre.stage, s.lbs[:n], !e.pre.dtw
		if req.Kind == KindTopK { // the other kinds bound batch by batch (scan)
			e.pre.bounds(pq, r.lbs, 0)
			if e.pre.dtw {
				cands = order(r.lbs, pq.self, s)
			} else {
				err = e.seedCut(pq, req.K, r.lbs, r.coll.cut)
			}
		}
		sp.EndErr(err)
		if err != nil {
			return nil, nil, err
		}
	}
	hits, err := r.scan(ctx, cands)
	if err != nil || r.coll == nil {
		return nil, hits, err
	}
	return r.coll.best(), nil, nil
}

// scratch is one query's storage by position: the prefilter's bounds, and
// DTW top-k's sort keys and order. It is pooled and never cleared: every
// batch bounds its own positions before reading them, and a top-k query
// bounds them all first.
type scratch struct {
	lbs  []float64
	keys [2][]uint64
	cis  [2][]int
}

// The pools every engine draws from: a query's scratch (execute) and a
// batch's DTW scratch (newScratch), so a warm query allocates neither,
// whichever engine runs it. Both grow to whatever a caller needs.
var (
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
	dtwPool     = sync.Pool{New: func() any { return new(distance.DTWScratch) }}
)

// workers resolves the executor parallelism of one request: its own budget,
// falling back to the engine default (0 = GOMAXPROCS).
func (e *Engine) workers(req *Request) int {
	if req.Workers > 0 {
		return req.Workers
	}
	return e.opts.Workers
}

// scan is the engine's one scan loop over the engine's one candidate source,
// every snapshot position but self: in position order when cands is nil, in
// cands' order otherwise (DTW top-k's bound order; cands omits self). It is
// cut into ShardSize batches that the work-stealing executor claims in order
// and drains under ctx (polled at every batch; the cascades poll it inside
// the long kernels). A batch first bounds its own positions when the request
// has a prefilter and is not KindTopK (which bounded them all up front), so
// the bound pass runs on the workers; then it goes through the kind's step
// with its own DTW scratch and outcome tally, and its tally reaches the
// engine's counters once, when the batch ends — whether it ran out or
// failed: a candidate whose computation was cancelled or failed is in no
// tally. scan keeps the query out of the spans and gathers the matches batch
// by batch, so the returned positions are ascending (the range kinds scan in
// position order) whatever order the batches ran in.
func (r *run) scan(ctx context.Context, cands []int) ([]int, error) {
	e := r.e
	n, self := e.snap.Len(), r.pq.self
	if cands != nil {
		n, self = len(cands), -1
	}
	size := e.opts.ShardSize
	hits := make([][]int, (n+size-1)/size)
	err := parallel.RunShardedCtx(ctx, n, size, e.workers(r.req), func(lo, hi int) error {
		var t tally
		scratch := e.newScratch()
		if r.lbs != nil && r.req.Kind != KindTopK {
			e.pre.bounds(r.pq, r.lbs[lo:hi], lo)
		}
		end := hi
		if lo <= self && self < hi {
			end = self // the batch holds the query itself: step around it
		}
		ids, err := r.step(scratch, &t, span{cands, lo, end})
		if err == nil && end < hi {
			var more []int
			more, err = r.step(scratch, &t, span{cands, self + 1, hi})
			ids = append(ids, more...)
		}
		if scratch != nil {
			dtwPool.Put(scratch)
		}
		e.outcomes.add(&t)
		hits[lo/size] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []int
	for _, ids := range hits {
		out = append(out, ids...)
	}
	return out, nil
}

// newScratch returns the DP row and LB_Keogh suffix sums one batch of a DTW
// engine shares, from the pool (the batch puts it back), and nil for every
// other measure.
func (e *Engine) newScratch() *distance.DTWScratch {
	if e.opts.Measure != MeasureDTW {
		return nil
	}
	return dtwPool.Get().(*distance.DTWScratch)
}

// step puts a span through the kind's step. There are two, and they differ
// only in where the cut comes from and what becomes of a candidate the
// cascade admits; what differs between measures is the cascade (resolve).
// They work on a span rather than on one candidate because the loop is
// 30 ns a candidate on the light measures, nine in ten of which fall at the
// prefilter: an indirect call per candidate measured 3% on PROUD range
// queries and on tier-0 top-k. They are methods of run, not closures built
// by small constructors: a closure copied into the caller of an inlined
// constructor loses the inlining of its own loop body, which measured 10%
// on Euclidean range queries.
func (r *run) step(scratch *distance.DTWScratch, t *tally, s span) ([]int, error) {
	if r.coll != nil {
		return nil, r.topKStep(scratch, t, s)
	}
	return r.rangeStep(scratch, t, s)
}

// topKStep is the step of the ranking kinds: each candidate meets the cut as
// it stands when its turn comes, and every one its cascade resolves is
// offered to the collector, whose k-th best tightens the cut. While one is
// resolved, the next the prefilter passes under the same cut has its row
// fetched; the cut only falls, so those between, which it dropped, fall
// under their own turn's cut too, and the next meets the new cut again.
func (r *run) topKStep(scratch *distance.DTWScratch, t *tally, s span) error {
	cut := r.coll.cut.get()
	for i := r.next(t, s, s.lo, cut); i < s.hi; {
		ci := s.at(i)
		ahead := r.next(t, s, i+1, cut)
		r.fetch(s, ahead)
		key, in, o, err := r.resolve(scratch, ci, cut)
		if err != nil {
			return candErr(ci, err)
		}
		t[o]++
		if in {
			r.coll.offer(ci, key)
		}
		cut = r.coll.cut.get()
		i = r.next(t, s, ahead, cut)
	}
	return nil
}

// rangeStep is the step of the range kinds: the cut is static, and every
// candidate its cascade admits is gathered and emitted. A KindProbRange
// match is emitted by position alone: the predicate can be decided by a
// sound bound without ever computing the probability.
func (r *run) rangeStep(scratch *distance.DTWScratch, t *tally, s span) (hits []int, _ error) {
	cut := r.cutoff2 // KindProbRange's cascades decide against Tau instead
	for i := r.next(t, s, s.lo, cut); i < s.hi; {
		ci := s.at(i)
		i = r.next(t, s, i+1, cut)
		r.fetch(s, i)
		key, in, o, err := r.resolve(scratch, ci, cut)
		if err != nil {
			return nil, candErr(ci, err)
		}
		t[o]++
		if !in {
			continue
		}
		hits = append(hits, ci)
		if r.emit != nil {
			if err := r.emit(Item{ID: ci, Distance: key}); err != nil {
				return nil, err
			}
		}
	}
	return hits, nil
}

// next is the prefilter stage of every cascade: the first index from i on of
// a span whose candidate the prefilter does not drop under cut (s.hi if
// none), counting those it drops. Most of the light measures' candidates end
// here, so the distance measures' test (skips) inlines into the loop and
// PROUD's (proudSkip) is one direct call beside it.
func (r *run) next(t *tally, s span, i int, cut float64) int {
	for ; i < s.hi; i++ {
		if ci := s.at(i); !(r.pre == distPrefilter && r.pq.skips(r.lbs[ci], cut) || r.pre == proudPrefilter && r.proudSkip(ci, cut)) {
			return i
		}
		t[skipped]++
	}
	return i
}

// fetch asks for the row of the span's i-th candidate, the next to be
// refined, under tier 0 alone: a lock-step refine is short next to the wait
// on a row the prefilter kept out of the cache. It is a hint only.
func (r *run) fetch(s span, i int) {
	if r.ahead && i < s.hi {
		prefetch(r.e.vecs.at(s.at(i)))
	}
}

// resolve walks candidate ci through the rest of its measure's cascade
// against the cut and reports how it was resolved, whether it is in the
// answer, and its ranking key (the distance, or the negated probability; 0
// for KindProbRange).
func (r *run) resolve(scratch *distance.DTWScratch, ci int, cut float64) (key float64, in bool, o outcome, err error) {
	switch r.e.opts.Measure {
	case MeasurePROUD:
		return r.proud(ci, cut)
	case MeasureMUNICH:
		return r.munich(ci, cut)
	}
	d, o, err := r.e.dist(r.pq, ci, cut, r.done, scratch)
	return d, o == completed && (r.coll != nil || d <= r.req.Eps), o, err
}
