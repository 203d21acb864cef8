// Package dust implements the DUST dissimilarity of Sarangi and Murthy
// (SIGKDD 2010), described in Section 2.3 of the paper.
//
// DUST isolates uncertainty handling in a similarity function phi:
//
//	phi(|x - y|) = Pr(dist(r(x), r(y)) = 0)
//
// where r(x), r(y) are the unknown true values behind observations x and y.
// With a flat prior on values (DUST's uniform-value assumption), the
// posterior of the truth given an observation is the reflected error
// density, and phi reduces to the cross-correlation of the two error
// densities at lag delta = x - y:
//
//	phi(delta) = Integral f_x(u) f_y(u - delta) du
//
// The per-value dissimilarity is then
//
//	dust(x, y) = sqrt( -log phi(|x-y|) + log phi(0) )
//
// and the whole-series distance is the L2 combination of per-timestamp dust
// values (Equation 13). For normally distributed errors this is
// proportional to the Euclidean distance, which the tests verify.
//
// phi has closed forms for the normal family; for everything else it is
// evaluated by numerical integration over the intersection of the effective
// supports. Because evaluation is expensive and experiments call it
// millions of times, per-error-distribution lookup tables over a delta grid
// are built lazily and interpolated (the "DUST lookup tables" of Section
// 4.2.1). A table is found by the string forms of its two error models, but
// the per-timestamp path of Value and the three Distance functions does not
// format them: a call starts from the pair the evaluator resolved last and
// goes back to the string-keyed cache only when either model differs from
// the previous timestamp's, so a run of equal models — a whole corpus under
// one default — costs a type switch and four integer compares per
// timestamp, with no lock, map or allocation.
//
// Uniform errors make phi exactly zero for |delta| larger than the support
// width, so dust degenerates to log 0. The paper's workaround — "adding two
// tails to the uniform error, so that the error probability density
// function is never exactly zero" — is implemented by mixing every error
// distribution with a small wide-normal tail component (Options.TailWeight).
package dust

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"uncertts/internal/stats"
	"uncertts/internal/uncertain"
)

// ErrLengthMismatch is returned when the two series differ in length.
var ErrLengthMismatch = errors.New("dust: series lengths differ")

// Options configures a Dust evaluator.
type Options struct {
	// TableSize is the number of grid points of each phi lookup table
	// (default 2048). Zero or negative selects the default.
	TableSize int
	// MaxDelta is the largest |x-y| covered by the tables (default 16).
	// Larger deltas fall back to direct integration.
	MaxDelta float64
	// TailWeight is the mixture weight of the wide-normal tail added to
	// every error distribution so that phi never vanishes (default 1e-4).
	// Set negative to disable the workaround (then bounded-support errors
	// can yield +Inf dust values, clamped to MaxDust).
	TailWeight float64
	// TailSpread scales the tail component's standard deviation relative to
	// the error's own (default 5).
	TailSpread float64
	// Exact disables the lookup tables; every phi is integrated directly.
	// It exists for the table-resolution ablation.
	Exact bool
	// IntegrationTol is the adaptive-quadrature tolerance (default 1e-9).
	IntegrationTol float64
}

func (o Options) withDefaults() Options {
	if o.TableSize <= 0 {
		o.TableSize = 2048
	}
	if o.MaxDelta <= 0 {
		o.MaxDelta = 16
	}
	if o.TailWeight == 0 {
		o.TailWeight = 1e-4
	}
	if o.TailWeight < 0 {
		o.TailWeight = 0
	}
	if o.TailSpread <= 0 {
		o.TailSpread = 5
	}
	if o.IntegrationTol <= 0 {
		o.IntegrationTol = 1e-9
	}
	return o
}

// MaxDust caps the per-value dust distance when phi underflows to zero and
// the tail workaround is disabled.
const MaxDust = 1e6

// Dust evaluates DUST distances. It is safe for concurrent use: the last
// resolved (error model pair, table) is an immutable value behind an atomic
// pointer, which each call copies on entry and replaces on exit if it ended
// on another pair; the mutex guards only the string-keyed map of lazily
// built tables behind it.
type Dust struct {
	opts Options

	last atomic.Pointer[resolved]

	mu     sync.Mutex
	tables map[tableKey]*phiTable
}

// leaf identifies an error model of one of the comparable leaf families by
// its kind and the bit patterns of its two parameters, so equal leaves have
// equal String() forms (bits, not float ==: -0 and 0 print differently).
type leaf struct {
	kind byte
	p, q uint64
}

// leafOf returns the identity of a leaf error model. Everything else —
// stats.Mixture above all, which holds slices: an interface == on it
// panics — reports false and is looked up by its string form every time.
func leafOf(d stats.Dist) (leaf, bool) {
	switch d := d.(type) {
	case stats.Normal:
		return leaf{'n', math.Float64bits(d.Mu), math.Float64bits(d.Sigma)}, true
	case stats.Uniform:
		return leaf{'u', math.Float64bits(d.A), math.Float64bits(d.B)}, true
	case stats.Exponential:
		return leaf{'e', math.Float64bits(d.Scale), math.Float64bits(d.Shift)}, true
	}
	return leaf{}, false
}

// resolved is one answered table lookup: a pair of leaf error models and
// the phi table the string-keyed cache returned for it (nil: none yet).
type resolved struct {
	x, y leaf
	t    *phiTable
}

// recall starts a call from the evaluator's last resolution.
func (d *Dust) recall() resolved {
	if r := d.last.Load(); r != nil {
		return *r
	}
	return resolved{}
}

// remember publishes the resolution a call ended on, if it is news.
func (d *Dust) remember(r resolved) {
	if last := d.last.Load(); r.t != nil && (last == nil || *last != r) {
		news := r // only the copy escapes, and only when stored
		d.last.Store(&news)
	}
}

// tableKey identifies a phi table by the pair of error distributions. The
// string forms include the parameters, so equal-parameter distributions
// share a table.
type tableKey struct{ x, y string }

// New returns a Dust evaluator with the given options.
func New(opts Options) *Dust {
	return &Dust{opts: opts.withDefaults(), tables: make(map[tableKey]*phiTable)}
}

// phiTable tabulates dust^2(delta) = -log phi(delta) + log phi(0) on a
// uniform delta grid.
type phiTable struct {
	maxDelta float64
	step     float64
	dust2    []float64
	logPhi0  float64
	errX     stats.Dist
	errY     stats.Dist
}

// withTail mixes d with a wide zero-mean normal so the density never
// vanishes.
func (o Options) withTail(d stats.Dist) stats.Dist {
	if o.TailWeight <= 0 {
		return d
	}
	sd := math.Sqrt(d.Variance())
	if sd <= 0 || math.IsNaN(sd) {
		sd = 1
	}
	tail := stats.NewNormal(0, o.TailSpread*sd)
	return stats.NewMixture([]stats.Dist{d, tail}, []float64{1 - o.TailWeight, o.TailWeight})
}

// phi integrates f_x(u) * f_y(u - delta) over the intersection of the
// effective supports.
func phi(errX, errY stats.Dist, delta, tol float64) float64 {
	loX, hiX := errX.Support()
	loY, hiY := errY.Support()
	lo := math.Max(loX, loY+delta)
	hi := math.Min(hiX, hiY+delta)
	if lo >= hi {
		return 0
	}
	f := func(u float64) float64 { return errX.PDF(u) * errY.PDF(u-delta) }
	v := stats.Integrate(f, lo, hi, tol)
	if v < 0 {
		v = 0
	}
	return v
}

// globalTables shares phi tables across Dust evaluators: experiments create
// a fresh evaluator per run, but tables depend only on (options, error
// distribution pair) and are expensive to build, so they are memoised
// process-wide.
var (
	globalTableMu sync.Mutex
	globalTables  = map[globalTableKey]*phiTable{}
)

type globalTableKey struct {
	x, y       string
	tableSize  int
	maxDelta   float64
	tailWeight float64
	tailSpread float64
}

// table returns the phi table of an error model pair: the one r holds when
// both models are the leaves it was resolved for, the string-keyed lookup
// (which r then holds) otherwise.
func (d *Dust) table(r *resolved, errX, errY stats.Dist) *phiTable {
	x, okX := leafOf(errX)
	y, okY := leafOf(errY)
	if !okX || !okY {
		return d.tableByString(errX, errY)
	}
	if r.t == nil || r.x != x || r.y != y {
		*r = resolved{x: x, y: y, t: d.tableByString(errX, errY)}
	}
	return r.t
}

func (d *Dust) tableByString(errX, errY stats.Dist) *phiTable {
	key := tableKey{errX.String(), errY.String()}
	d.mu.Lock()
	if t, ok := d.tables[key]; ok {
		d.mu.Unlock()
		return t
	}
	d.mu.Unlock()

	gkey := globalTableKey{
		x: key.x, y: key.y,
		tableSize:  d.opts.TableSize,
		maxDelta:   d.opts.MaxDelta,
		tailWeight: d.opts.TailWeight,
		tailSpread: d.opts.TailSpread,
	}
	globalTableMu.Lock()
	t, ok := globalTables[gkey]
	if !ok {
		t = d.buildTable(errX, errY)
		globalTables[gkey] = t
	}
	globalTableMu.Unlock()

	d.mu.Lock()
	d.tables[key] = t
	d.mu.Unlock()
	return t
}

func (d *Dust) buildTable(errX, errY stats.Dist) *phiTable {
	ex := d.opts.withTail(errX)
	ey := d.opts.withTail(errY)
	n := d.opts.TableSize
	t := &phiTable{
		maxDelta: d.opts.MaxDelta,
		step:     d.opts.MaxDelta / float64(n-1),
		dust2:    make([]float64, n),
		errX:     ex,
		errY:     ey,
	}
	phi0 := d.phiAt(ex, ey, 0)
	if phi0 <= 0 {
		phi0 = math.SmallestNonzeroFloat64
	}
	t.logPhi0 = math.Log(phi0)
	for i := 0; i < n; i++ {
		delta := float64(i) * t.step
		t.dust2[i] = d.dust2At(ex, ey, delta, t.logPhi0)
	}
	return t
}

// phiAt picks the closed form when possible (all pairs from the
// normal/uniform/exponential families and their mixtures have one — see
// closedform.go), integration otherwise.
func (d *Dust) phiAt(errX, errY stats.Dist, delta float64) float64 {
	if v, ok := correlation(errX, errY, delta); ok {
		if v < 0 {
			v = 0
		}
		return v
	}
	return phi(errX, errY, delta, d.opts.IntegrationTol)
}

// dust2At returns the squared per-value dust distance at lag delta.
func (d *Dust) dust2At(errX, errY stats.Dist, delta, logPhi0 float64) float64 {
	p := d.phiAt(errX, errY, delta)
	if p <= 0 {
		return MaxDust * MaxDust
	}
	v := logPhi0 - math.Log(p) // -log phi(delta) + log phi(0)
	if v < 0 {
		// phi cannot genuinely exceed phi(0) (the autocorrelation peaks at
		// zero lag); tiny negatives are integration noise.
		v = 0
	}
	return v
}

// Value returns dust(x, y) for two observed values whose errors follow errX
// and errY.
func (d *Dust) Value(x, y float64, errX, errY stats.Dist) (float64, error) {
	r := d.recall()
	v, err := d.value(&r, x, y, errX, errY)
	d.remember(r)
	return v, err
}

// value is Value over the caller's running resolution, which the series
// distances carry from one timestamp to the next.
func (d *Dust) value(r *resolved, x, y float64, errX, errY stats.Dist) (float64, error) {
	if errX == nil || errY == nil {
		return 0, errors.New("dust: nil error distribution")
	}
	delta := math.Abs(x - y)
	if d.opts.Exact {
		ex := d.opts.withTail(errX)
		ey := d.opts.withTail(errY)
		phi0 := d.phiAt(ex, ey, 0)
		if phi0 <= 0 {
			phi0 = math.SmallestNonzeroFloat64
		}
		v := d.dust2At(ex, ey, delta, math.Log(phi0))
		return math.Sqrt(v), nil
	}
	return math.Sqrt(d.table(r, errX, errY).lookup(delta, d)), nil
}

// lookup interpolates dust^2 at delta, falling back to direct evaluation
// beyond the table domain.
func (t *phiTable) lookup(delta float64, d *Dust) float64 {
	if delta >= t.maxDelta {
		return d.dust2At(t.errX, t.errY, delta, t.logPhi0)
	}
	pos := delta / t.step
	i := int(pos)
	if i >= len(t.dust2)-1 {
		return t.dust2[len(t.dust2)-1]
	}
	f := pos - float64(i)
	return t.dust2[i]*(1-f) + t.dust2[i+1]*f
}

// Distance returns the DUST distance between two PDF-model uncertain series
// (Equation 13): sqrt( sum_i dust(x_i, y_i)^2 ).
//
// The per-timestamp error distributions are taken from the series
// themselves, which is how DUST exploits mixed error distributions
// (Section 3.1: DUST "can take into account mixed distributions for the
// uncertainty errors").
func (d *Dust) Distance(q, c uncertain.PDFSeries) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if q.Len() != c.Len() {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, q.Len(), c.Len())
	}
	r := d.recall()
	var acc float64
	for i := 0; i < q.Len(); i++ {
		v, err := d.value(&r, q.Observations[i], c.Observations[i], q.Errors[i], c.Errors[i])
		if err != nil {
			return 0, fmt.Errorf("dust: timestamp %d: %w", i, err)
		}
		acc += v * v
	}
	d.remember(r)
	return math.Sqrt(acc), nil
}

// DistanceEarlyAbandon is Distance with a cutoff on the accumulated squared
// per-timestamp dust values: once the running sum of Equation 13 exceeds
// cutoff the scan abandons, returning the partial accumulation and false. A
// completed scan returns exactly the value Distance would (same
// accumulation order), and completion implies dist^2 <= cutoff. The query
// engine uses this with the current k-th-best distance as the cutoff,
// sharing one evaluator — and therefore one set of phi lookup tables —
// across a whole batch of queries.
func (d *Dust) DistanceEarlyAbandon(q, c uncertain.PDFSeries, cutoff float64) (float64, bool, error) {
	if err := q.Validate(); err != nil {
		return 0, false, err
	}
	if err := c.Validate(); err != nil {
		return 0, false, err
	}
	if q.Len() != c.Len() {
		return 0, false, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, q.Len(), c.Len())
	}
	r := d.recall()
	var acc float64
	for i := 0; i < q.Len(); i++ {
		v, err := d.value(&r, q.Observations[i], c.Observations[i], q.Errors[i], c.Errors[i])
		if err != nil {
			return 0, false, fmt.Errorf("dust: timestamp %d: %w", i, err)
		}
		acc += v * v
		if acc > cutoff {
			d.remember(r)
			return math.Sqrt(acc), false, nil
		}
	}
	d.remember(r)
	return math.Sqrt(acc), true, nil
}

// DistanceDTW combines per-timestamp dust values under dynamic time
// warping instead of lock-step alignment (Section 3.2 notes MUNICH and DUST
// support DTW). The DP minimises the sum of squared dust values along the
// warping path and returns its square root.
func (d *Dust) DistanceDTW(q, c uncertain.PDFSeries) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	n, m := q.Len(), c.Len()
	prev := make([]float64, m+1)
	curr := make([]float64, m+1)
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	r := d.recall()
	for i := 1; i <= n; i++ {
		curr[0] = math.Inf(1)
		for j := 1; j <= m; j++ {
			v, err := d.value(&r, q.Observations[i-1], c.Observations[j-1], q.Errors[i-1], c.Errors[j-1])
			if err != nil {
				return 0, err
			}
			best := prev[j]
			if prev[j-1] < best {
				best = prev[j-1]
			}
			if curr[j-1] < best {
				best = curr[j-1]
			}
			curr[j] = v*v + best
		}
		prev, curr = curr, prev
	}
	d.remember(r)
	return math.Sqrt(prev[m]), nil
}

// TableCount reports how many phi tables have been built; exposed for the
// table-reuse tests and the ablation bench.
func (d *Dust) TableCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tables)
}
