package engine

import (
	"context"
	"fmt"
	"math"

	"uncertts/internal/core"
	"uncertts/internal/distance"
)

// span is a run of candidates handed to a step: positions [lo, hi) of the
// snapshot, or elements [lo, hi) of list when the source is a survivor list.
// It never contains the query itself.
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

// step is the one thing that differs between the kinds and measure families:
// what happens to a run of candidates. Every step puts each candidate
// through the same three stages — test the prefilter bound against the cut,
// run the measure's pruned kernel, then offer to the collector (top-k kinds)
// or gather and emit the match (range kinds) — and returns the matches it
// gathered and the number of candidates its prefilter dropped. It works on a
// span rather than on one candidate because the loop is 30 ns a candidate on
// the light measures, nine in ten of which fall at the first compare: an
// indirect call per candidate measured 3% on PROUD range queries and on
// tier-0 top-k. The steps are the four methods of run below (methods, not
// closures built by small constructors: a closure copied into the caller of
// an inlined constructor loses the inlining of its own loop body, which
// measured 10% on Euclidean range queries); each polls the request's done
// channel inside its long kernels, and the DTW one borrows its DP rows from
// scratch (nil for every other measure).
type step func(scratch *distance.DTWScratch, s span) (hits []int, skipped int64, err error)

// candErr names the candidate a kernel failed on.
func candErr(ci int, err error) error { return fmt.Errorf("engine: candidate %d: %w", ci, err) }

// scan is the engine's one scan loop. The candidate source — cands, ascending
// and without the query itself, or every snapshot position but self when
// cands is nil — is cut into ShardSize shards that the work-stealing executor
// drains under ctx (polled at every shard; the steps poll it inside the long
// kernels), and each shard goes through step. scan keeps the query out of
// the spans, tallies the prefilter's skips, and gathers the matches shard by
// shard so the returned positions are ascending whatever order the shards
// ran in.
func (e *Engine) scan(ctx context.Context, workers int, cands []int, self int, step step) ([]int, error) {
	n := e.snap.Len()
	if cands != nil {
		n, self = len(cands), -1
	}
	size := e.opts.ShardSize
	hits := make([][]int, (n+size-1)/size)
	err := core.RunShardedCtx(ctx, n, size, workers, func(lo, hi int) error {
		scratch := e.newScratch()
		end := hi
		if lo <= self && self < hi {
			end = self // the shard holds the query itself: step around it
		}
		ids, skipped, err := step(scratch, span{cands, lo, end})
		if err == nil && end < hi {
			var more []int
			var n int64
			more, n, err = step(scratch, span{cands, self + 1, hi})
			ids, skipped = append(ids, more...), skipped+n
		}
		if err != nil {
			return err
		}
		e.seriesSkipped.Add(skipped)
		hits[lo/size] = ids
		return nil
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

// newScratch returns the DP rows one work batch of a DTW engine shares — one
// pair per batch, not per candidate, so the hot path allocates nothing — and
// nil for every other measure.
func (e *Engine) newScratch() *distance.DTWScratch {
	if e.opts.Measure != MeasureDTW {
		return nil
	}
	return new(distance.DTWScratch)
}

// run is one request in flight: everything a step reads besides the
// candidate. It is built once per request and shared, read-only, by the
// request's workers.
type run struct {
	e    *Engine
	pq   *prepared
	req  *Request
	done <-chan struct{}

	coll     *collector       // the top-k kinds' collector and live cut
	lbs      []float64        // tier 0's raw bound of every position (KindTopK on a tier-0 engine)
	cutoff2  float64          // KindRange: ulpUp(Eps^2)
	epsLimit float64          // KindProbRange on a PROUD engine
	emit     func(Item) error // the range kinds' match callback (nil = none)
}

// topK answers the two ranking kinds: every candidate the step resolves is
// offered to one collector, whose k-th best key is the live cut the step
// prunes against. The result is ranked by (key, position) and at most K long.
func (e *Engine) topK(ctx context.Context, pq *prepared, req *Request) ([]ranked, error) {
	var shared *cut // the cluster-wide cut, when the request carries one
	switch {
	case req.Kind == KindTopK && req.Bound != nil:
		shared = &req.Bound.c
	case req.Kind == KindProbTopK && req.ProbBound != nil:
		shared = &req.ProbBound.c
	}
	r := &run{e: e, pq: pq, req: req, done: ctx.Done(), coll: newCollector(req.K, req.Kind == KindTopK, shared)}
	st := r.probTopKStep
	if req.Kind == KindTopK {
		st = r.topKStep
		if e.t0 != nil {
			var err error
			if r.lbs, err = e.seedCut(pq, req.K, r.coll.cut); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if e.idx != nil {
		err = e.treeTopK(ctx, pq, e.workers(req), req.K, r.coll, st)
	} else {
		_, err = e.scan(ctx, e.workers(req), nil, pq.self, st)
	}
	if err != nil {
		return nil, err
	}
	return r.coll.best(), nil
}

// matches answers the two range kinds: the cut is static (Eps, or Tau), so
// the scan gathers every candidate the step confirms, in ascending position.
// emit (nil = none) sees each match as its shard confirms it; its error
// aborts the scan and is returned verbatim.
func (e *Engine) matches(ctx context.Context, pq *prepared, req *Request, emit func(Item) error) ([]int, error) {
	r := &run{e: e, pq: pq, req: req, done: ctx.Done(), emit: emit}
	if req.Kind == KindProbRange {
		var err error
		if r.epsLimit, err = e.checkTau(req.Tau); err != nil {
			return nil, err
		}
		return e.scan(ctx, e.workers(req), nil, pq.self, r.probRangeStep)
	}
	r.cutoff2 = ulpUp(req.Eps * req.Eps)
	var cands []int
	if e.idx != nil {
		cands = e.treeCandidates(pq, r.cutoff2)
	}
	return e.scan(ctx, e.workers(req), cands, pq.self, r.rangeStep)
}

// workers resolves the executor parallelism of one request: its own budget,
// falling back to the engine default (0 = GOMAXPROCS).
func (e *Engine) workers(req *Request) int {
	if req.Workers > 0 {
		return req.Workers
	}
	return e.opts.Workers
}

// The distance steps test the engaged prefilter's bound before the kernel:
// tier 0's (coarseSkip, or the bounds top-k computed up front) for the
// lock-step measures, the candidate's own sketch row (rowSkip) for DTW. At
// most one is engaged.

func (e *Engine) coarseSkip(pq *prepared, ci int, cutoff2 float64) bool {
	return e.t0 != nil && e.t0.rawBound(pq, ci) > skipLimit(cutoff2+pq.slack)
}

func (e *Engine) rowSkip(pq *prepared, ci int, cutoff2 float64) bool {
	return e.idx != nil && e.memberSkip(pq, e.idx.rows.at(ci), cutoff2)
}

// topKStep is the KindTopK step. The cut is read per candidate, so each one
// is tested against the tightest k-th best yet.
func (r *run) topKStep(scratch *distance.DTWScratch, s span) (_ []int, skipped int64, _ error) {
	e, pq, lbs := r.e, r.pq, r.lbs
	for i := s.lo; i < s.hi; i++ {
		ci := s.at(i)
		cutoff2 := r.coll.cut.get()
		if lbs != nil {
			if lbs[ci] > skipLimit(cutoff2+pq.slack) {
				skipped++
				continue
			}
		} else if e.rowSkip(pq, ci, cutoff2) {
			skipped++
			continue
		}
		d, ok, err := e.distPruned(pq, ci, cutoff2, r.done, scratch)
		if err != nil {
			return nil, skipped, candErr(ci, err)
		}
		if ok {
			r.coll.offer(ci, d)
		}
	}
	return nil, skipped, nil
}

// rangeStep is the KindRange step.
func (r *run) rangeStep(scratch *distance.DTWScratch, s span) (hits []int, skipped int64, _ error) {
	e, pq, cutoff2 := r.e, r.pq, r.cutoff2
	for i := s.lo; i < s.hi; i++ {
		ci := s.at(i)
		if e.coarseSkip(pq, ci, cutoff2) || e.rowSkip(pq, ci, cutoff2) {
			skipped++
			continue
		}
		d, ok, err := e.distPruned(pq, ci, cutoff2, r.done, scratch)
		if err != nil {
			return nil, skipped, candErr(ci, err)
		}
		if !ok || d > r.req.Eps {
			continue
		}
		hits = append(hits, ci)
		if r.emit != nil {
			if err := r.emit(Item{ID: ci, Distance: d}); err != nil {
				return nil, skipped, err
			}
		}
	}
	return hits, skipped, nil
}

// probRangeStep is the KindProbRange step. A match is emitted by position
// alone: the range predicate can be decided by a sound bound without ever
// computing the probability.
func (r *run) probRangeStep(_ *distance.DTWScratch, s span) (hits []int, skipped int64, _ error) {
	e, pq, eps := r.e, r.pq, r.req.Eps
	for i := s.lo; i < s.hi; i++ {
		ci := s.at(i)
		var ok bool
		var err error
		if e.opts.Measure == MeasurePROUD {
			if e.proudRejects(pq, ci, eps, r.epsLimit) {
				skipped++
				continue
			}
			ok, err = e.proudAccept(pq, ci, eps, r.epsLimit, r.done)
		} else {
			ok, err = e.munichAccept(pq, ci, eps, r.req.Tau, r.done)
		}
		if err != nil {
			return nil, skipped, candErr(ci, err)
		}
		if !ok {
			continue
		}
		hits = append(hits, ci)
		if r.emit != nil {
			if err := r.emit(Item{ID: ci}); err != nil {
				return nil, skipped, err
			}
		}
	}
	return hits, skipped, nil
}

// probTopKStep is the KindProbTopK step. The collector ranks by -p, so the
// probability floor the kernels prune against is the cut negated.
func (r *run) probTopKStep(_ *distance.DTWScratch, s span) (_ []int, skipped int64, _ error) {
	e, pq, eps := r.e, r.pq, r.req.Eps
	for i := s.lo; i < s.hi; i++ {
		ci := s.at(i)
		floor := -r.coll.cut.get()
		var p float64
		var ok bool
		var err error
		if e.opts.Measure == MeasurePROUD {
			if e.proudBelow(pq, ci, eps, floor) {
				skipped++
				continue
			}
			p, ok, err = e.proudProb(pq, ci, eps, floor, r.done)
		} else {
			p, ok, err = e.munichProb(pq, ci, eps, floor, math.Inf(1), r.done)
		}
		if err != nil {
			return nil, skipped, candErr(ci, err)
		}
		if ok {
			r.coll.offer(ci, -p)
		}
	}
	return nil, skipped, nil
}
