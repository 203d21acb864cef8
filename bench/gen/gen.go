// Package gen makes every input the benchmark sends: the synthetic corpora,
// the ingest batches and the query streams. Everything is a pure function of
// the seed, so the harness and the layer probe (two separate programs) see
// byte-identical inputs, and the server only ever receives generated data.
package gen

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
)

// Fixed settings of the benchmark (recorded in every result file).
const (
	// DatasetSeed draws the corpora. The dataset is part of the benchmark,
	// like a checked-in file would be: the run's --seed draws the traffic
	// (which series are queried, the ad-hoc and inserted series, the verify
	// set), not the data. A corpus per seed moved query_p50_ms by 10% and
	// query_heavy's throughput by 37% between seeds on unchanged code, more
	// than any bound.
	DatasetSeed = 20120827
	Length      = 128  // series length
	Sigma       = 0.25 // reported error stddev, also the server's -sigma
	Prototypes  = 64   // smooth shapes the series are drawn around
	K           = 10   // neighbours per top-k query
	Tau         = 0.1  // probability threshold of probrange queries
	IngestBatch = 512  // series per POST /series during set-up
	EpsProbes   = 32   // probes the eps calibration takes the median over
	arPhi       = 0.8  // AR(1) coefficient of the noise: temporal correlation
	arScale     = 0.35 // AR(1) innovation stddev
	decimals    = 1e4  // values are rounded to 4 decimals, as a sensor would report
)

// SeriesJSON and the two request types mirror the server's wire format; the
// harness speaks HTTP only and does not import the server.
type SeriesJSON struct {
	Values  []float64   `json:"values"`
	Samples [][]float64 `json:"samples,omitempty"`
}

// SeriesRequest is the body of POST /series.
type SeriesRequest struct {
	Insert []SeriesJSON `json:"insert,omitempty"`
	Delete []int        `json:"delete,omitempty"`
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Measure string      `json:"measure"`
	Type    string      `json:"type"`
	K       int         `json:"k,omitempty"`
	Eps     float64     `json:"eps,omitempty"`
	Tau     float64     `json:"tau,omitempty"`
	ID      *int        `json:"id,omitempty"`
	Series  *SeriesJSON `json:"series,omitempty"`
}

// Corpus is the harness's own copy of what it ingests: series i is the i-th
// series sent, so with the ids the server acknowledged it is also the ground
// truth the brute-force verification runs against.
type Corpus struct {
	Values  [][]float64
	Samples [][][]float64 // Samples[i][t][j]; nil when the corpus has none
	// Eps is the calibrated range threshold: the median Euclidean distance
	// to the K-th nearest neighbour over EpsProbes seeded probes, so a range
	// query returns about K series.
	Eps float64

	samplesPer int
	protos     [][]float64
}

// NewCorpus draws n series of Length points around Prototypes smooth shapes
// plus AR(1) noise, z-normalised, with samplesPer repeated observations per
// timestamp (0 for none).
func NewCorpus(seed int64, n, samplesPer int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{samplesPer: samplesPer, protos: make([][]float64, Prototypes)}
	for p := range c.protos {
		c.protos[p] = prototype(rng)
	}
	c.Values = make([][]float64, n)
	if samplesPer > 0 {
		c.Samples = make([][][]float64, n)
	}
	for i := range c.Values {
		v, s := c.NewSeries(rng)
		c.Values[i] = v
		if samplesPer > 0 {
			c.Samples[i] = s
		}
	}
	c.Eps = c.calibrateEps(rng)
	return c
}

// prototype is a sum of four low-frequency sinusoids with random amplitude
// and phase: smooth, so neighbouring timestamps are correlated.
func prototype(rng *rand.Rand) []float64 {
	out := make([]float64, Length)
	for h := 1; h <= 4; h++ {
		amp := rng.NormFloat64() / float64(h)
		phase := rng.Float64() * 2 * math.Pi
		for t := range out {
			out[t] += amp * math.Sin(2*math.Pi*float64(h)*float64(t)/Length+phase)
		}
	}
	return out
}

// NewSeries draws one more series from the corpus' distribution (used for
// the corpus itself, for ad-hoc queries and for the writer's inserts).
func (c *Corpus) NewSeries(rng *rand.Rand) ([]float64, [][]float64) {
	proto := c.protos[rng.Intn(len(c.protos))]
	v := make([]float64, Length)
	noise := 0.0
	for t := range v {
		noise = arPhi*noise + arScale*rng.NormFloat64()
		v[t] = proto[t] + noise
	}
	znormalise(v)
	for t := range v {
		v[t] = round(v[t])
	}
	if c.samplesPer == 0 {
		return v, nil
	}
	s := make([][]float64, Length)
	for t := range s {
		s[t] = make([]float64, c.samplesPer)
		for j := range s[t] {
			s[t][j] = round(v[t] + Sigma*rng.NormFloat64())
		}
	}
	return v, s
}

func znormalise(v []float64) {
	mean, sq := 0.0, 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		sq += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(sq / float64(len(v)))
	if sd == 0 {
		sd = 1
	}
	for t := range v {
		v[t] = (v[t] - mean) / sd
	}
}

func round(x float64) float64 { return math.Round(x*decimals) / decimals }

// Euclidean is the definitional distance the verification compares the
// server's answers with.
func Euclidean(a, b []float64) float64 {
	s := 0.0
	for t := range a {
		d := a[t] - b[t]
		s += d * d
	}
	return math.Sqrt(s)
}

func (c *Corpus) calibrateEps(rng *rand.Rand) float64 {
	if len(c.Values) <= K {
		return 1
	}
	kth := make([]float64, EpsProbes)
	dist := make([]float64, 0, len(c.Values))
	for p := range kth {
		q := rng.Intn(len(c.Values))
		dist = dist[:0]
		for i, v := range c.Values {
			if i != q {
				dist = append(dist, Euclidean(c.Values[q], v))
			}
		}
		sort.Float64s(dist)
		kth[p] = dist[K-1]
	}
	sort.Float64s(kth)
	return round((kth[EpsProbes/2-1] + kth[EpsProbes/2]) / 2)
}

// Series returns the wire form of corpus series i.
func (c *Corpus) Series(i int) SeriesJSON {
	s := SeriesJSON{Values: c.Values[i]}
	if c.Samples != nil {
		s.Samples = c.Samples[i]
	}
	return s
}

// IngestBodies returns the POST /series bodies that load the whole corpus in
// batches of IngestBatch, in corpus order.
func (c *Corpus) IngestBodies() [][]byte {
	var bodies [][]byte
	for lo := 0; lo < len(c.Values); lo += IngestBatch {
		hi := min(lo+IngestBatch, len(c.Values))
		req := SeriesRequest{Insert: make([]SeriesJSON, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			req.Insert = append(req.Insert, c.Series(i))
		}
		bodies = append(bodies, MustJSON(req))
	}
	return bodies
}

// MustJSON marshals a value that cannot fail to marshal (plain structs of
// finite floats and ints).
func MustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("gen: " + err.Error())
	}
	return b
}

// Op is one measure_kind pair of a traffic mix.
type Op struct {
	Name    string // measure_kind, "_adhoc" appended for ad-hoc queries
	Measure string
	Kind    string
	AdHoc   bool // the query series travels in the body instead of an id
	Weight  int  // share of the mix, by count
}

// LightMix is the query_light traffic (also the reader of mixed_durable and,
// byte for byte, the traffic of sharded): cheap queries, so parse, plan,
// index descent and encode are a visible share of each. By count 25%
// euclidean top-k, 15% each of uma top-k, uema top-k and euclidean range, 10%
// proud probrange, 20% ad-hoc euclidean top-k; Weight x Pool queries of each
// op make one cycle of 600.
var LightMix = Mix{Pool: 30, Ops: []Op{
	{Name: "euclidean_topk", Measure: "euclidean", Kind: "topk", Weight: 5},
	{Name: "uma_topk", Measure: "uma", Kind: "topk", Weight: 3},
	{Name: "uema_topk", Measure: "uema", Kind: "topk", Weight: 3},
	{Name: "euclidean_range", Measure: "euclidean", Kind: "range", Weight: 3},
	{Name: "proud_probrange", Measure: "proud", Kind: "probrange", Weight: 2},
	{Name: "euclidean_topk_adhoc", Measure: "euclidean", Kind: "topk", AdHoc: true, Weight: 4},
}}

// HeavyMix is the query_heavy traffic, dtw : dust : munich = 4 : 1 : 1 by
// count in cycles of 36: kernel-bound, the server layer does almost nothing.
var HeavyMix = Mix{Pool: 6, Ops: []Op{
	{Name: "dtw_topk", Measure: "dtw", Kind: "topk", Weight: 4},
	{Name: "dust_topk", Measure: "dust", Kind: "topk", Weight: 1},
	{Name: "munich_probrange", Measure: "munich", Kind: "probrange", Weight: 1},
}}

// Mix is a traffic mix: its ops and how many distinct queries of each the
// fixed query set holds per unit of weight.
type Mix struct {
	Ops  []Op
	Pool int
}

// Query is one generated request with what the harness needs to check its
// answer.
type Query struct {
	Op     *Op
	Body   []byte
	ID     int       // resident id queried, -1 for ad-hoc
	Values []float64 // the query series' values (brute-force input)
	Eps    float64   // distance threshold of the range kinds
}

// newQuery builds one query of op: against corpus series ids[i] by id, or
// with a fresh series in the body for an ad-hoc op.
func newQuery(rng *rand.Rand, op *Op, c *Corpus, ids []int) Query {
	req := QueryRequest{Measure: op.Measure, Type: op.Kind}
	switch op.Kind {
	case "topk":
		req.K = K
	case "range":
		req.Eps = c.Eps
	case "probrange":
		req.Eps, req.Tau = c.Eps, Tau
	}
	q := Query{Op: op, ID: -1, Eps: req.Eps}
	if op.AdHoc {
		v, smp := c.NewSeries(rng)
		req.Series = &SeriesJSON{Values: v, Samples: smp}
		q.Values = v
	} else {
		i := rng.Intn(len(ids))
		q.ID, q.Values = ids[i], c.Values[i]
		req.ID = &q.ID
	}
	q.Body = MustJSON(req)
	return q
}

// QuerySet is the fixed set of queries a mix sends: Weight x Pool queries of
// each op, drawn by DatasetSeed like the corpus itself. Every cycle of every
// stream sends each of them exactly once, so all cycles — within a run,
// between runs and between seeds — do the same work and their timings compare
// directly. Drawing targets afresh per run instead moved query_heavy's
// throughput by 15% between seeds on unchanged code: one munich probrange
// costs 25 to 700 ms depending on whom it asks about.
func (m Mix) QuerySet(c *Corpus, ids []int) []Query {
	var set []Query
	for i := range m.Ops {
		op := &m.Ops[i]
		rng := rand.New(rand.NewSource(SubSeed(DatasetSeed, "queries-"+op.Name)))
		for range op.Weight * m.Pool {
			set = append(set, newQuery(rng, op, c, ids))
		}
	}
	return set
}

// VerifySet draws perOp queries of every op by the run's seed: unlike the
// query set, the answers checked differ from seed to seed.
func (m Mix) VerifySet(seed int64, c *Corpus, ids []int, perOp int) []Query {
	rng := rand.New(rand.NewSource(seed))
	var set []Query
	for i := range m.Ops {
		for range perOp {
			set = append(set, newQuery(rng, &m.Ops[i], c, ids))
		}
	}
	return set
}

// Stream is a deterministic, endless sequence of cycles: each cycle is the
// query set in an order shuffled by the stream's seed.
type Stream struct {
	set   []Query
	order []int
	pos   int
	cycle int
	rng   *rand.Rand
}

// NewStream seeds a stream over a query set. Two streams with equal
// arguments produce byte-identical request sequences.
func NewStream(seed int64, set []Query) *Stream {
	s := &Stream{set: set, order: make([]int, len(set)), pos: len(set), cycle: -1, rng: rand.New(rand.NewSource(seed))}
	for i := range s.order {
		s.order[i] = i
	}
	return s
}

// Next returns the next query and the cycle it belongs to.
func (s *Stream) Next() (Query, int) {
	if s.pos == len(s.order) {
		s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		s.pos = 0
		s.cycle++
	}
	q := s.set[s.order[s.pos]]
	s.pos++
	return q, s.cycle
}

// SubSeed derives an independent seed for one named part of a run (a client,
// the verify set, the writer) from the run's seed.
func SubSeed(seed int64, part string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, b := range []byte(part) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int64(h >> 1)
}
