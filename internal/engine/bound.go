package engine

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The ranking devices of the two top-k kinds: one atomic cut, one bounded
// heap and one collector. Both kinds rank ascending by a key — the distance
// for KindTopK, the negated probability for KindProbTopK. Negation is exact
// in IEEE-754, so ranking by -p orders, ties and rounds exactly as ranking
// by p descending would, and one implementation serves both.

// cut is a monotonically decreasing float64 shared by the workers of one
// query (and, through Bound/ProbBound, by the shards of one cluster query):
// the tightest proven upper bound on the k-th best key. It holds squared
// distances for KindTopK and negated probabilities for KindProbTopK.
type cut struct{ bits atomic.Uint64 }

// set places the cut at v, whatever it held: +Inf opens it (nothing proven
// yet), a finite v fixes it where a range query's static threshold is.
func (c *cut) set(v float64) *cut {
	c.bits.Store(math.Float64bits(v))
	return c
}

func (c *cut) get() float64 { return math.Float64frombits(c.bits.Load()) }

// lower publishes v if it improves (decreases) the cut.
func (c *cut) lower(v float64) {
	for {
		old := c.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Bound is an externally shared, monotonically tightening upper bound on
// the k-th best distance of one top-k query — the cluster-facing handle
// over the same atomic cut the workers of a single engine coordinate
// through. Injecting one Bound into the Requests of several engines (one
// per cluster shard, each scanning its own corpus partition) makes every
// shard's early-abandon cascade cut against the global k-th distance as
// it tightens mid-flight, not just its local one.
//
// Soundness: each published value is a proven upper bound on the global
// k-th best distance (the k-th best of any subset is an upper bound on
// the k-th best of the whole), values only ever decrease, and every
// published square is inflated by ulpUp — so a candidate is abandoned
// only when it is strictly beyond the global k-th, never when it ties
// it. Results therefore stay bit-identical to a single-corpus scan.
//
// The zero value is not ready; use NewBound. All methods are safe for
// concurrent use.
type Bound struct{ c cut }

// NewBound returns a bound at +Inf (nothing proven yet).
func NewBound() *Bound {
	b := &Bound{}
	b.c.set(math.Inf(1))
	return b
}

// Squared returns the current bound in squared-distance space (+Inf
// until first lowered). This is the wire value cluster nodes exchange.
func (b *Bound) Squared() float64 { return b.c.get() }

// LowerSquared publishes a squared-space bound if it improves
// (decreases) the current one — the ingest side of the wire exchange.
// The value must already carry its ulpUp safety margin, i.e. come from
// Squared() of another Bound.
func (b *Bound) LowerSquared(v float64) { b.c.lower(v) }

// ProbBound is Bound for KindProbTopK: a monotonically rising lower bound
// on the k-th best match probability, kept as the falling cut on its
// negation. Shards abandon a candidate once its probability upper bound
// falls below the global k-th best probability; the probBoundMargin inside
// the kernels keeps exact ties alive, so merged results stay bit-identical.
//
// The zero value is not ready; use NewProbBound.
type ProbBound struct{ c cut }

// NewProbBound returns a bound at -Inf (nothing proven yet).
func NewProbBound() *ProbBound {
	b := &ProbBound{}
	b.c.set(math.Inf(1))
	return b
}

// Value returns the current lower bound on the k-th best probability
// (-Inf until first raised) — the wire value cluster nodes exchange.
func (b *ProbBound) Value() float64 { return -b.c.get() }

// Raise publishes v if it improves (increases) the bound. v must be a
// proven k-th best probability of some subset of the corpus — e.g. the
// k-th best of a shard's local heap, or of the coordinator's merged
// heap.
func (b *ProbBound) Raise(v float64) { b.c.lower(-v) }

// kHeap is a bounded max-heap: it retains the k smallest keys seen and
// exposes the largest of them — the current k-th best — as the pruning bound.
type kHeap struct {
	k  int
	ds []float64
}

// newKHeap sizes the heap by the n keys that can ever be pushed, not by k: a
// request's k is unbounded, and past n it changes nothing.
func newKHeap(k, n int) *kHeap { return &kHeap{k: k, ds: make([]float64, 0, min(k, n))} }

func (h *kHeap) full() bool { return len(h.ds) >= h.k }

// top returns the largest retained key (only meaningful when full).
func (h *kHeap) top() float64 { return h.ds[0] }

func (h *kHeap) push(d float64) {
	if len(h.ds) < h.k {
		h.ds = append(h.ds, d)
		// sift up
		i := len(h.ds) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.ds[p] >= h.ds[i] {
				break
			}
			h.ds[p], h.ds[i] = h.ds[i], h.ds[p]
			i = p
		}
		return
	}
	if d >= h.ds[0] {
		return
	}
	h.ds[0] = d
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.ds) && h.ds[l] > h.ds[big] {
			big = l
		}
		if r < len(h.ds) && h.ds[r] > h.ds[big] {
			big = r
		}
		if big == i {
			return
		}
		h.ds[i], h.ds[big] = h.ds[big], h.ds[i]
		i = big
	}
}

// ulpUp inflates a squared bound by a few ulps so the sqrt-then-square
// round-trip (distances are stored as sqrt, bounds as squares) can never
// exclude a candidate that ties the k-th best exactly. The relative 1e-15
// margin is ~4 ulps — far above the round-trip error, far below any real
// distance gap — and costs no measurable pruning. A relative margin
// vanishes at v = 0 (exact-duplicate series), where ties would survive only
// because every kernel happens to compare with strict >; the absolute floor
// keeps a zero cutoff strictly above every distance that ties it.
func ulpUp(v float64) float64 {
	if v := v + v*1e-15; v > 0 {
		return v
	}
	return math.SmallestNonzeroFloat64
}

// ranked is one collected candidate: its snapshot position and ranking key.
type ranked struct {
	id  int
	key float64
}

// collector is the query-wide top-k accumulator every work item of one
// query shares, in position and in bound order alike: each resolved
// candidate is offered under a mutex, and once k are known the k-th best key
// tightens the query's cut. A heap per work item would only ever prove the
// k-th best of its own few dozen candidates, a far looser cut than the
// query's; offers are rare once the cut is tight, so the mutex is
// uncontended.
type collector struct {
	cut *cut
	// squared marks distance keys: they rank in linear space but cut in
	// squared space, ulpUp-inflated. Probability keys cut as they are.
	squared bool

	mu   sync.Mutex
	h    *kHeap
	kept []ranked
}

// newCollector ranks the k smallest of at most n keys against the shared cut
// (nil = a private one).
func newCollector(k, n int, squared bool, shared *cut) *collector {
	if shared == nil {
		shared = new(cut).set(math.Inf(1))
	}
	return &collector{cut: shared, squared: squared, h: newKHeap(k, n)}
}

func (c *collector) offer(id int, key float64) {
	c.mu.Lock()
	c.h.push(key)
	if c.h.full() {
		if top := c.h.top(); c.squared {
			c.cut.lower(ulpUp(top * top))
		} else {
			c.cut.lower(top)
		}
	}
	// Strictly beyond the k-th best of the candidates seen so far is
	// provably outside the answer; ties stay, for the ID tie-break.
	if !c.h.full() || key <= c.h.top() {
		c.kept = append(c.kept, ranked{id, key})
	}
	c.mu.Unlock()
}

// best orders the retained candidates by (key, ID) — the deterministic order
// every execution path and every cluster merge ranks by — and keeps the
// first k.
func (c *collector) best() []ranked {
	all := c.kept
	sort.Slice(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].id < all[j].id
	})
	if c.h.k < len(all) {
		all = all[:c.h.k]
	}
	return all
}
