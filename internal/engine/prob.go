package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"uncertts/internal/core"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/qerr"
)

// Probabilistic threshold queries (MeasurePROUD, MeasureMUNICH): the
// engine-side counterparts of the naive core.PROUDMatcher and
// core.MUNICHMatcher scans. ProbRange answers PRQ(q, C, eps, tau) —
// which candidates match with probability at least tau — and ProbTopK
// ranks candidates by their match probability Pr(distance <= eps).
// Execution is sharded on core.RunSharded exactly like TopKBatch, with a
// per-query shared bound (the k-th best probability proven so far) that
// tightens pruning across shard boundaries.
//
// Pruning is measure-native and exact:
//
//   - MUNICH walks a bound hierarchy — segment-envelope lower bound (built
//     from the per-series envelopes the corpus maintains), the exact
//     bounding-interval prune, then a per-timestamp sample-pair
//     probability bound when the refine step is exact — and survivors pay
//     for a refine that itself abandons early in the estimator's own
//     arithmetic (munich.ProbabilityCutoff). Every shortcut either mirrors
//     a prune the naive matcher also applies, fixes the probability at
//     exactly 0 or 1, or is proven in the estimator's arithmetic, so
//     answers are bit-identical to the naive scan for every estimator
//     configuration.
//   - PROUD first pushes tier 0's bracket of the squared gap (tier0.go)
//     through the prefix bounds as a prefix of zero timestamps, then
//     accumulates the distance moments timestamp by timestamp (in exactly
//     proud.Distance's order) and stops as soon as the same bounds force
//     the predicate outcome or push the candidate's best possible
//     probability below the shared k-th best.
//
// All decisions either mirror the naive matcher's arithmetic exactly or
// are backed by a conservative bound, so results match the naive scans
// bit for bit at every worker count.

// proudCheckStride is the number of timestamps accumulated between prefix
// bound checks: small enough that far candidates die after a fraction of
// the series, large enough that the bound arithmetic stays a rounding
// error next to the accumulation it saves.
const proudCheckStride = 16

// probBoundMargin is subtracted from probability-space pruning thresholds:
// the bounds are sound in exact arithmetic, and the margin (tiny next to
// any meaningful probability gap, enormous next to float64 rounding) keeps
// them sound under floating point so pruned answers stay bit-identical to
// the naive scan.
const probBoundMargin = 1e-9

// ProbMatch pairs a candidate index with its match probability
// Pr(distance(query, candidate) <= eps).
type ProbMatch struct {
	ID   int
	Prob float64
}

// sharedMaxBound is a monotonically increasing float64 shared across the
// workers of one query: the best proven lower bound on the k-th best match
// probability.
type sharedMaxBound struct{ bits atomic.Uint64 }

func newSharedMaxBound() *sharedMaxBound {
	b := &sharedMaxBound{}
	b.bits.Store(math.Float64bits(math.Inf(-1)))
	return b
}

func (b *sharedMaxBound) get() float64 { return math.Float64frombits(b.bits.Load()) }

// raise publishes v if it improves (increases) the bound.
func (b *sharedMaxBound) raise(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// probHeap is a bounded min-heap over probabilities: it retains the k
// largest values seen and exposes the current k-th best as the pruning
// bound — the mirror image of kHeap.
type probHeap struct {
	k  int
	ps []float64
}

func newProbHeap(k int) *probHeap { return &probHeap{k: k, ps: make([]float64, 0, k)} }

func (h *probHeap) full() bool { return len(h.ps) >= h.k }

// top returns the smallest retained probability (only meaningful when full).
func (h *probHeap) top() float64 { return h.ps[0] }

func (h *probHeap) push(p float64) {
	if len(h.ps) < h.k {
		h.ps = append(h.ps, p)
		i := len(h.ps) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if h.ps[parent] <= h.ps[i] {
				break
			}
			h.ps[parent], h.ps[i] = h.ps[i], h.ps[parent]
			i = parent
		}
		return
	}
	if p <= h.ps[0] {
		return
	}
	h.ps[0] = p
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ps) && h.ps[l] < h.ps[small] {
			small = l
		}
		if r < len(h.ps) && h.ps[r] < h.ps[small] {
			small = r
		}
		if small == i {
			return
		}
		h.ps[i], h.ps[small] = h.ps[small], h.ps[i]
		i = small
	}
}

// probTopKCollector is topKCollector's mirror image for probability-ranked
// queries: the query-wide accumulator whose k-th best probability raises the
// query's shared floor.
type probTopKCollector struct {
	mu   sync.Mutex
	h    *probHeap
	kept []ProbMatch
}

func (c *probTopKCollector) offer(m ProbMatch, b *sharedMaxBound) {
	c.mu.Lock()
	c.h.push(m.Prob)
	if c.h.full() {
		b.raise(c.h.top())
	}
	// Strictly below the k-th best of the candidates seen so far is provably
	// outside the answer; ties stay, for the ID tie-break.
	if !c.h.full() || m.Prob >= c.h.top() {
		c.kept = append(c.kept, m)
	}
	c.mu.Unlock()
}

// checkProbQuery validates the common parameters of the probabilistic
// queries.
func (e *Engine) checkProbQuery(pqs []*PreparedQuery, eps float64) error {
	if e.opts.Measure != MeasurePROUD && e.opts.Measure != MeasureMUNICH {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("measure %v does not define match probabilities (use MeasurePROUD or MeasureMUNICH)", e.opts.Measure))
	}
	if err := e.checkPrepared(pqs); err != nil {
		return err
	}
	if math.IsNaN(eps) || eps < 0 {
		return fmt.Errorf("engine: %w", qerr.BadRequestf("eps = %v must be non-negative", eps))
	}
	return nil
}

// checkTau validates the probability threshold against the measure's
// domain (mirroring the naive matchers: PROUD needs tau in (0, 1), MUNICH
// tau in (0, 1]) and returns PROUD's eps_limit. tau is shared by a whole
// batch, so the inverse-CDF work runs once per call, not per query.
func (e *Engine) checkTau(tau float64) (float64, error) {
	if e.opts.Measure == MeasurePROUD {
		lim, err := proud.EpsLimit(tau)
		if err != nil {
			return 0, fmt.Errorf("engine: %w", qerr.BadRequestf("%v", err))
		}
		return lim, nil
	}
	if math.IsNaN(tau) || tau <= 0 || tau > 1 {
		return 0, fmt.Errorf("engine: %w", qerr.BadRequestf("MUNICH tau %v outside (0, 1]", tau))
	}
	return 0, nil
}

// ProbRange returns the indexes of every candidate whose match probability
// Pr(distance(qi, ci) <= eps) reaches tau, excluding qi, in ascending
// order — bit-identical to the corresponding naive matcher scan
// (core.PROUDMatcher / core.MUNICHMatcher with the same estimator options).
//
// Legacy surface: ProbRange is a thin wrapper over Run with a background
// context.
func (e *Engine) ProbRange(qi int, eps, tau float64) ([]int, error) {
	res, err := e.Run(context.Background(), Request{Measure: e.opts.Measure, Kind: KindProbRange, Index: &qi, Eps: eps, Tau: tau})
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// ProbRangeBatch answers the probabilistic range query for every query
// index in one batched, sharded, work-stealing pass. eps and tau are
// shared by the batch; results are per-query, in input order, identical
// for every worker count.
func (e *Engine) ProbRangeBatch(queries []int, eps, tau float64) ([][]int, error) {
	pqs, err := e.prepareIndexBatch(queries)
	if err != nil {
		return nil, err
	}
	return e.ProbRangePrepared(pqs, eps, tau)
}

// ProbRangePrepared answers the probabilistic range query for every
// prepared query in one batched, sharded, work-stealing pass.
func (e *Engine) ProbRangePrepared(pqs []*PreparedQuery, eps, tau float64) ([][]int, error) {
	return e.probRangePrepared(context.Background(), pqs, eps, tau, nil)
}

// probRangePrepared is the probabilistic-range execution core: sharded
// scan under a context, polled at every (query, shard) work item, every
// PROUD prefix stride and inside the MUNICH refine estimators. emit
// (nil = none) is invoked with (query position in pqs, candidate) for
// every accepted candidate as its shard resolves it — emission order is
// nondeterministic under parallelism; the returned slices are always in
// ascending position order. A non-nil emit error aborts the scan.
func (e *Engine) probRangePrepared(ctx context.Context, pqs []*PreparedQuery, eps, tau float64, emit func(q, id int) error) ([][]int, error) {
	if err := e.checkProbQuery(pqs, eps); err != nil {
		return nil, err
	}
	epsLimit, err := e.checkTau(tau)
	if err != nil {
		return nil, err
	}
	n := e.snap.Len()
	shardSize := e.opts.ShardSize
	numShards := (n + shardSize - 1) / shardSize
	done := ctx.Done()
	buckets := make([][]int, len(pqs)*numShards)

	err = core.RunShardedCtx(ctx, len(pqs)*numShards, 1, e.workersFor(pqs), func(lo, hi int) error {
		for item := lo; item < hi; item++ {
			q, shard := item/numShards, item%numShards
			pq := pqs[q]
			cLo, cHi := shard*shardSize, (shard+1)*shardSize
			if cHi > n {
				cHi = n
			}
			var ids []int
			var skipped int64
			for ci := cLo; ci < cHi; ci++ {
				if ci == pq.self {
					continue
				}
				var ok bool
				var err error
				if e.opts.Measure == MeasurePROUD {
					if e.proudRejects(pq, ci, eps, epsLimit) {
						skipped++
						continue
					}
					ok, err = e.proudAccept(pq, ci, eps, epsLimit, done)
				} else {
					ok, err = e.munichAccept(pq, ci, eps, tau, done)
				}
				if err != nil {
					return fmt.Errorf("engine: query %d candidate %d: %w", q, ci, err)
				}
				if ok {
					ids = append(ids, ci)
					if emit != nil {
						if err := emit(q, ci); err != nil {
							return err
						}
					}
				}
			}
			e.seriesSkipped.Add(skipped)
			buckets[item] = ids
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(pqs))
	for q := range pqs {
		var all []int
		for shard := 0; shard < numShards; shard++ {
			all = append(all, buckets[q*numShards+shard]...)
		}
		out[q] = all
	}
	return out, nil
}

// ProbTopK returns the k candidates with the highest match probability
// Pr(distance(qi, ci) <= eps), excluding qi, sorted by descending
// probability with ties broken by ascending index — exactly what a naive
// scan computing every pair probability and sorting returns.
//
// Legacy surface: ProbTopK is a thin wrapper over Run with a background
// context.
func (e *Engine) ProbTopK(qi int, eps float64, k int) ([]ProbMatch, error) {
	res, err := e.Run(context.Background(), Request{Measure: e.opts.Measure, Kind: KindProbTopK, Index: &qi, Eps: eps, K: k})
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// ProbTopKBatch answers the probability-ranked top-k query for every query
// index in one batched, sharded pass. Workers cooperate through a
// per-query shared bound — the k-th best probability any shard has proven
// so far — which is a lower bound on the final k-th best, so a candidate
// whose probability upper bound falls below it can never belong to the
// answer. Results are identical for every worker count.
func (e *Engine) ProbTopKBatch(queries []int, eps float64, k int) ([][]ProbMatch, error) {
	pqs, err := e.prepareIndexBatch(queries)
	if err != nil {
		return nil, err
	}
	return e.ProbTopKPrepared(pqs, eps, k)
}

// ProbTopKPrepared answers the probability-ranked top-k query for every
// prepared query in one batched, sharded pass.
func (e *Engine) ProbTopKPrepared(pqs []*PreparedQuery, eps float64, k int) ([][]ProbMatch, error) {
	return e.probTopKPrepared(context.Background(), pqs, eps, k)
}

// probTopKPrepared is the probability-ranked top-k execution core: sharded
// scan under a context, polled at every (query, shard) work item, every
// PROUD prefix stride and inside the MUNICH refine estimators.
func (e *Engine) probTopKPrepared(ctx context.Context, pqs []*PreparedQuery, eps float64, k int) ([][]ProbMatch, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: %w", qerr.BadRequestf("k = %d must be at least 1", k))
	}
	if err := e.checkProbQuery(pqs, eps); err != nil {
		return nil, err
	}
	n := e.snap.Len()
	shardSize := e.opts.ShardSize
	numShards := (n + shardSize - 1) / shardSize
	done := ctx.Done()

	bounds := make([]*sharedMaxBound, len(pqs))
	found := make([]*probTopKCollector, len(pqs))
	for q := range pqs {
		bounds[q] = pqs[q].probBoundRef()
		found[q] = &probTopKCollector{h: newProbHeap(k)}
	}

	err := core.RunShardedCtx(ctx, len(pqs)*numShards, 1, e.workersFor(pqs), func(lo, hi int) error {
		for item := lo; item < hi; item++ {
			q, shard := item/numShards, item%numShards
			pq := pqs[q]
			cLo, cHi := shard*shardSize, (shard+1)*shardSize
			if cHi > n {
				cHi = n
			}
			var skipped int64
			for ci := cLo; ci < cHi; ci++ {
				if ci == pq.self {
					continue
				}
				cut := bounds[q].get()
				var p float64
				var ok bool
				var err error
				if e.opts.Measure == MeasurePROUD {
					if e.proudBelow(pq, ci, eps, cut) {
						skipped++
						continue
					}
					p, ok, err = e.proudProb(pq, ci, eps, cut, done)
				} else {
					p, ok, err = e.munichProb(pq, ci, eps, cut, done)
				}
				if err != nil {
					return fmt.Errorf("engine: query %d candidate %d: %w", q, ci, err)
				}
				if ok {
					found[q].offer(ProbMatch{ID: ci, Prob: p}, bounds[q])
				}
			}
			e.seriesSkipped.Add(skipped)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([][]ProbMatch, len(pqs))
	for q := range pqs {
		all := found[q].kept
		sort.Slice(all, func(i, j int) bool {
			if all[i].Prob != all[j].Prob {
				return all[i].Prob > all[j].Prob
			}
			return all[i].ID < all[j].ID
		})
		if k < len(all) {
			all = all[:k]
		}
		out[q] = all
	}
	return out, nil
}

// proudAccept decides the PROUD range predicate for one pair: accumulate
// the distance moments in exactly proud.Distance's order, stopping as soon
// as the prefix bounds force the outcome. A completed accumulation applies
// the same EpsNorm >= epsLimit test as the naive matcher to bit-identical
// moments. done (nil = never) is polled at every prefix stride, so even a
// single long accumulation stops promptly on cancellation.
func (e *Engine) proudAccept(pq *PreparedQuery, ci int, eps, epsLimit float64, done <-chan struct{}) (bool, error) {
	e.candidates.Add(1)
	q, c := pq.vec, e.vecs.at(ci)
	n := len(q)
	varD := pq.varD
	var mean, variance float64
	for t := 0; t < n; {
		stop := t + proudCheckStride
		if stop > n {
			stop = n
		}
		for ; t < stop; t++ {
			mu := q[t] - c[t]
			mean += mu*mu + varD
			variance += 2*varD*varD + 4*varD*mu*mu
		}
		if t >= n {
			continue
		}
		if done != nil {
			select {
			case <-done:
				e.uncount()
				return false, qerr.Cancelled(nil)
			default:
			}
		}
		if e.opts.NoPrune {
			continue
		}
		gap := 2 * (pq.suffix[t] + e.suffix.at(ci)[t])
		switch proud.PrefixDecide(mean, variance, n-t, varD, gap, eps, epsLimit) {
		case proud.Accept:
			e.resolvedEarly.Add(1)
			return true, nil
		case proud.Reject:
			e.resolvedEarly.Add(1)
			return false, nil
		}
	}
	e.completed.Add(1)
	d := proud.DistanceDist{Mean: mean, Variance: variance}
	return d.EpsNorm(eps) >= epsLimit, nil
}

// proudProb computes the exact match probability for one pair, abandoning
// (ok = false) when the prefix bounds prove the probability cannot reach
// the current k-th best. done (nil = never) is polled at every prefix
// stride.
func (e *Engine) proudProb(pq *PreparedQuery, ci int, eps, cut float64, done <-chan struct{}) (float64, bool, error) {
	e.candidates.Add(1)
	q, c := pq.vec, e.vecs.at(ci)
	n := len(q)
	varD := pq.varD
	var mean, variance float64
	for t := 0; t < n; {
		stop := t + proudCheckStride
		if stop > n {
			stop = n
		}
		for ; t < stop; t++ {
			mu := q[t] - c[t]
			mean += mu*mu + varD
			variance += 2*varD*varD + 4*varD*mu*mu
		}
		if t >= n {
			continue
		}
		if done != nil {
			select {
			case <-done:
				e.uncount()
				return 0, false, qerr.Cancelled(nil)
			default:
			}
		}
		if e.opts.NoPrune || math.IsInf(cut, -1) {
			continue
		}
		gap := 2 * (pq.suffix[t] + e.suffix.at(ci)[t])
		if proud.ProbWithinUpper(mean, variance, n-t, varD, gap, eps) < cut-probBoundMargin {
			e.abandoned.Add(1)
			return 0, false, nil
		}
	}
	e.completed.Add(1)
	d := proud.DistanceDist{Mean: mean, Variance: variance}
	return d.ProbWithin(eps), true, nil
}

// munichAccept decides the MUNICH range predicate for one pair. It is
// munichProb with tau as the exclusion cutoff: an excluded candidate has a
// probability provably below tau, so it rejects; a resolved one compares
// exactly as the naive matcher does.
func (e *Engine) munichAccept(pq *PreparedQuery, ci int, eps, tau float64, done <-chan struct{}) (bool, error) {
	p, ok, err := e.munichProb(pq, ci, eps, tau, done)
	return ok && p >= tau, err
}

// munichProb computes the match probability for one pair through the bound
// hierarchy: segment envelope, exact bounding intervals (both resolve the
// probability to exactly 0 or 1), the sample-pair probability bound in the
// exact-refine regime (it bounds the exact probability, so it may only
// shortcut a refine step that would count exactly), then the refine itself
// with the estimator-native early rejection of munich.ProbabilityCutoff.
// ok = false means the candidate's probability is provably below cut
// without having been computed. The bounding-interval prune runs in every
// arm because the naive matcher itself applies it; the other devices are
// the engine's additions. done (nil = never) threads cooperative
// cancellation into the refine estimators.
func (e *Engine) munichProb(pq *PreparedQuery, ci int, eps, cut float64, done <-chan struct{}) (float64, bool, error) {
	e.candidates.Add(1)
	if !e.opts.NoPrune && munich.EnvelopeLowerBound(pq.env, e.envs[ci], e.spans) > eps {
		// No materialisation is within eps: the probability is exactly 0.
		e.pruned.Add(1)
		return 0, true, nil
	}
	x, y := pq.sample, *e.snap.Entry(ci).Samples
	dec, err := munich.Prune(x, y, eps)
	if err != nil {
		e.uncount()
		return 0, false, err
	}
	switch dec {
	case munich.PruneAccept:
		e.resolvedBounds.Add(1)
		return 1, true, nil
	case munich.PruneReject:
		e.resolvedBounds.Add(1)
		return 0, true, nil
	}
	cutoff := math.Inf(-1)
	if !e.opts.NoPrune {
		if !math.IsInf(cut, -1) && e.opts.MUNICH.ExactFeasible(x, y) {
			up, err := munich.ProbUpperBound(x, y, eps)
			if err != nil {
				e.uncount()
				return 0, false, err
			}
			if up < cut-probBoundMargin {
				e.resolvedBounds.Add(1)
				return 0, false, nil
			}
		}
		cutoff = cut
	}
	p, complete, err := munich.ProbabilityCutoffCancel(x, y, eps, cutoff, e.opts.MUNICH, done)
	if err != nil {
		e.uncount()
		return 0, false, err
	}
	if !complete { // estimate provably below cut in the estimator's arithmetic
		e.abandoned.Add(1)
		return 0, false, nil
	}
	e.completed.Add(1)
	return p, true, nil
}
