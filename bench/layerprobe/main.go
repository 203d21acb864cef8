// Command layerprobe is the traced half of the benchmark: it regenerates the
// inputs of a run from the seed and times calls into the public functions of
// every layer, in-process. It is a program of its own so that the end-to-end
// harness imports nothing of the repository and keeps compiling when a
// layer's API changes; only this file has to follow such a change.
//
// Every span and every duration is taken here, in the benchmark's own code,
// around a call into a layer; the layers themselves are not instrumented.
// Output: one JSON object on standard output (metrics and the replay summary
// the harness needs for the budget) and the spans of the replay in -trace-out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"uncertts/bench/gen"
	"uncertts/bench/stat"
	"uncertts/internal/cluster"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/engine"
	"uncertts/internal/munich"
	"uncertts/internal/proud"
	"uncertts/internal/server"
	"uncertts/internal/sketch"
	"uncertts/internal/store"
	"uncertts/internal/telemetry"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is what the harness reads.
type output struct {
	Metrics map[string]value `json:"metrics"`
	// ReplayMeanMS is the mean duration of one replayed request (parse,
	// run, encode) over one cycle of the workload's query set: the traced
	// counterpart of the server-side mean the untraced HTTP run scrapes.
	ReplayMeanMS float64 `json:"replay_mean_ms"`
}

type probe struct {
	out   output
	slice time.Duration // time one repeated measurement may take
	tmp   string
	ctx   context.Context
}

func (p *probe) set(name, unit string, v float64) { p.out.Metrics[name] = value{Value: v, Unit: unit} }

// section logs how long a part of the probe took, to standard error.
func section(name string, f func()) {
	t0 := time.Now()
	f()
	fmt.Fprintf(os.Stderr, "layerprobe: %-10s %5.1fs\n", name, time.Since(t0).Seconds())
}

// timed returns how long one call of f took, in nanoseconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0))
}

// medianOf repeats a measurement for the probe's time slice (at least minReps
// times, at most 10000) and returns the median of what it reports.
func (p *probe) medianOf(minReps int, measure func(i int) float64) float64 {
	var d []float64
	start := time.Now()
	for i := 0; i < 10000 && (i < minReps || time.Since(start) < p.slice); i++ {
		d = append(d, measure(i))
	}
	return stat.Median(d)
}

// median is medianOf over the duration of one call of f, in nanoseconds.
func (p *probe) median(minReps int, f func(i int)) float64 {
	return p.medianOf(minReps, func(i int) float64 { return timed(func() { f(i) }) })
}

func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layerprobe:", err)
	os.Exit(1)
}

const (
	us = 1e3 // ns per µs
	ms = 1e6 // ns per ms

	// Metric families of the system the probe reads counts from.
	pushesTotal   = "uncertts_cluster_bound_pushes_total"
	walBytesTotal = "uncertts_store_wal_appended_bytes_total"
	fsyncSeconds  = "uncertts_store_fsync_duration_seconds"
)

func corpusConfig() corpus.Config {
	return corpus.Config{Length: gen.Length, ReportedSigma: gen.Sigma}
}

func seriesOf(c *gen.Corpus, lo, hi int) []corpus.Series {
	out := make([]corpus.Series, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s := corpus.Series{Values: c.Values[i]}
		if c.Samples != nil {
			s.Samples = c.Samples[i]
		}
		out = append(out, s)
	}
	return out
}

// load ingests the generated corpus in batches of gen.IngestBatch and returns
// the ids and each batch's duration in nanoseconds.
func load(c *corpus.Corpus, g *gen.Corpus) (ids []int, batchNS []float64) {
	for lo := 0; lo < len(g.Values); lo += gen.IngestBatch {
		batch := seriesOf(g, lo, min(lo+gen.IngestBatch, len(g.Values)))
		batchNS = append(batchNS, timed(func() { ids = append(ids, must(c.InsertBatch(batch))...) }))
	}
	return ids, batchNS
}

// fresh draws n series that are not in the corpus (inserts of the mutation
// probes).
func fresh(g *gen.Corpus, seed int64, n int) []corpus.Series {
	src := rand.New(rand.NewSource(seed))
	out := make([]corpus.Series, n)
	for i := range out {
		v, s := g.NewSeries(src)
		out[i] = corpus.Series{Values: v, Samples: s}
	}
	return out
}

func wire(batch []corpus.Series) server.SeriesRequest {
	req := server.SeriesRequest{Insert: make([]server.SeriesJSON, len(batch))}
	for i, s := range batch {
		req.Insert[i] = server.SeriesJSON{Values: s.Values, Samples: s.Samples}
	}
	return req
}

// queryRequest decodes a generated body exactly as the server's handler does.
func queryRequest(q gen.Query) server.QueryRequest {
	var req server.QueryRequest
	check(json.Unmarshal(q.Body, &req))
	return req
}

// encode writes a response the way the server's handler does (indented JSON).
func encode(v any) {
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}

func main() {
	var (
		workload = flag.String("workload", "query_light", "workload whose query set is replayed for the trace")
		seed     = flag.Int64("seed", 42, "seed of the run")
		base     = flag.Int("base", 8192, "series in the base corpus")
		sampled  = flag.Int("sampled", 1024, "series in the sampled corpus")
		samples  = flag.Int("samples", 3, "samples per timestamp of the sampled corpus")
		budget   = flag.Float64("budget", 12, "seconds the repeated measurements may take in total (set-up of the corpora comes on top)")
		traceOut = flag.String("trace-out", "", "file the replay's spans are written to")
		tmp      = flag.String("tmp", "", "directory for the store probe (created, removed afterwards)")
	)
	flag.Parse()
	if *traceOut == "" || *tmp == "" {
		fatal(fmt.Errorf("-trace-out and -tmp are required"))
	}
	// About fifty repeated measurements share the budget.
	p := &probe{out: output{Metrics: map[string]value{}}, slice: time.Duration(*budget / 50 * float64(time.Second)), tmp: *tmp, ctx: context.Background()}

	gBase := gen.NewCorpus(gen.DatasetSeed, *base, 0)
	gSampled := gen.NewCorpus(gen.DatasetSeed, *sampled, *samples)
	cBase, cSampled := corpus.New(corpusConfig()), corpus.New(corpusConfig())
	var idsBase, idsSampled []int
	section("corpora", func() {
		var batchNS []float64
		idsBase, batchNS = load(cBase, gBase)
		// The last quarter of the build: batches of 512 against a nearly full corpus.
		p.set("corpus.insert_batch512_ms_per_series", "ms", stat.Median(batchNS[len(batchNS)-max(1, len(batchNS)/4):])/ms/gen.IngestBatch)
		idsSampled, _ = load(cSampled, gSampled)
	})
	light := gen.LightMix.QuerySet(gBase, idsBase)
	heavy := gen.HeavyMix.QuerySet(gSampled, idsSampled)
	srvBase := server.New(cBase, server.Options{})
	srvSampled := server.New(cSampled, server.Options{})

	section("kernels", func() { p.kernels(cSampled.Snapshot(), gSampled.Eps) })
	section("sketch", func() { p.sketch(cBase.Snapshot()) })
	section("engines", func() {
		p.engines(cBase.Snapshot(), gen.LightMix, light)
		p.engines(cSampled.Snapshot(), gen.HeavyMix, heavy)
	})
	section("server", func() { p.server(light) })
	var cp clusterProbe
	section("cluster", func() { cp = p.cluster(gBase, light, srvBase) })

	// The replay: one cycle of the workload's query set through the same
	// public entry points the handler uses.
	set, run := light, func(req server.QueryRequest) (any, error) { return srvBase.Run(p.ctx, req) }
	switch *workload {
	case "query_heavy":
		set, run = heavy, func(req server.QueryRequest) (any, error) { return srvSampled.Run(p.ctx, req) }
	case "sharded":
		run = func(req server.QueryRequest) (any, error) { return cp.co.Query(p.ctx, req) }
	}
	section("replay", func() { p.replay(*seed, set, run, cp.legs, *traceOut) })

	// Mutations last: deletes leave dead rows behind, and a snapshot with
	// dead rows has no dense columns, which would slow every probe above.
	// Everything the earlier sections built is dropped first: an insert
	// reallocates every arena, and what that costs grows with the live heap
	// the collector has to mark, which in the server is one corpus, not five.
	cp, srvSampled, cSampled, gSampled, light, heavy, set, run = clusterProbe{}, nil, nil, nil, nil, nil, nil, nil
	runtime.GC()
	section("mutations", func() { p.mutations(srvBase, cBase, gBase) })
	section("store", func() { p.store(gBase) })

	check(json.NewEncoder(os.Stdout).Encode(p.out))
}

// kernels times the distance kernels per pair, on rows of the sampled corpus
// (the only one that carries every artifact).
func (p *probe) kernels(snap *corpus.Snapshot, eps float64) {
	const pairs = 64
	n := snap.Len()
	pair := func(i int) (*corpus.Entry, *corpus.Entry) {
		return snap.Entry((i * 7919) % n), snap.Entry((i*104729 + 1) % n)
	}
	per := func(f func(a, b *corpus.Entry)) float64 {
		return p.median(3, func(int) {
			for i := range pairs {
				a, b := pair(i)
				f(a, b)
			}
		}) / pairs
	}
	inf := math.Inf(1)
	band := snap.Config().Band
	p.set("distance.sqeuclid_ea_ns", "ns", per(func(a, b *corpus.Entry) {
		_, _, err := distance.SquaredEuclideanEarlyAbandon(a.PDF.Observations, b.PDF.Observations, inf)
		check(err)
	}))
	p.set("distance.lbkeogh_ns", "ns", per(func(a, b *corpus.Entry) {
		_, err := distance.LBKeoghSquared(a.PDF.Observations, b.Upper, b.Lower, inf)
		check(err)
	}))
	p.set("distance.dtwband_ns", "ns", per(func(a, b *corpus.Entry) {
		_, err := distance.DTWBand(a.PDF.Observations, b.PDF.Observations, band)
		check(err)
	}))
	d := snap.Dust()
	p.set("dust.distance_ns", "ns", per(func(a, b *corpus.Entry) {
		_, err := d.Distance(a.PDF, b.PDF)
		check(err)
	}))
	sigma := snap.ReportedSigma()
	p.set("proud.distance_ns", "ns", per(func(a, b *corpus.Entry) {
		_, err := proud.Distance(a.PDF.Observations, b.PDF.Observations, sigma, sigma)
		check(err)
	}))
	p.set("munich.probability_us", "us", per(func(a, b *corpus.Entry) {
		_, err := munich.Probability(*a.Samples, *b.Samples, eps, munich.Options{})
		check(err)
	})/us)
	spans := snap.Spans()
	p.set("munich.envelope_lb_ns", "ns", per(func(a, b *corpus.Entry) {
		_ = munich.EnvelopeLowerBound(a.Env, b.Env, spans)
	}))
}

// sketch times the index layer on the base corpus' own tree and sketch rows.
func (p *probe) sketch(snap *corpus.Snapshot) {
	cols, dense := snap.Columns()
	if !dense {
		fatal(fmt.Errorf("freshly built corpus is not dense"))
	}
	tree := snap.Index()
	lay := tree.Layout()
	members := make([]sketch.Member, snap.Len())
	for i := range members {
		members[i] = sketch.Member{ID: snap.IDAt(i), Row: i}
	}
	p.set("sketch.build_ms", "ms", p.median(3, func(int) { sketch.Build(lay, tree.LeafCap(), members, cols.Sketch) })/ms)

	const batch = 8
	p.set("sketch.update_us", "us", p.medianOf(5, func(i int) float64 {
		// Take eight members out, then time putting them back.
		lo := (i * batch) % (len(members) - batch)
		without := tree.Update(cols.Sketch, nil, members[lo:lo+batch])
		return timed(func() { without.Update(cols.Sketch, members[lo:lo+batch], nil) })
	})/us)

	w := lay.W
	p.set("sketch.locate_us", "us", p.median(20, func(i int) { tree.Locate(cols.Sketch.Row(i % snap.Len())[:w]) })/us)
	buckets := tree.Buckets()
	p.set("sketch.buckets", "count", float64(len(buckets)))
	inf := math.Inf(1)
	p.set("sketch.mindist_ns", "ns", p.median(5, func(i int) {
		q := cols.Sketch.Row(i % snap.Len())[:w]
		for _, b := range buckets {
			sketch.MinDistSquaredBounded(q, b.Lo[:w], b.Hi[:w], lay.Spans, inf)
		}
	})/float64(len(buckets)))
}

// rowBytes is what one candidate's artifacts of a measure occupy: the bytes a
// full evaluation of the pair reads on the corpus side.
func rowBytes(m string, samples int) float64 {
	const row = gen.Length * 8
	switch m {
	case "dtw":
		return 3 * row // values + upper and lower envelope
	case "dust":
		return 2 * row // values + sigmas
	case "proud":
		return 2*row + 8 // values + suffix energies
	case "munich":
		return float64(samples)*row + 2*16*8 // samples + segment envelope
	}
	return row
}

// engines times Engine.Run for every resident op of the mix with the index
// on and off, and derives the per-measure work counts from engine.Stats.
func (p *probe) engines(snap *corpus.Snapshot, mix gen.Mix, set []gen.Query) {
	samples := 0
	if e := snap.Entry(0); e.Samples != nil {
		samples = e.Samples.SamplesPerTimestamp()
	}
	byMeasure := map[string]engine.Stats{}
	queries := map[string]int{}
	for i := range mix.Ops {
		op := mix.Ops[i]
		if op.AdHoc {
			continue
		}
		m := must(engine.ParseMeasure(op.Measure))
		kind := must(engine.ParseKind(op.Kind))
		var reqs []engine.Request
		for _, q := range set {
			if q.Op.Name == op.Name {
				pos, ok := snap.PosOf(q.ID)
				if !ok {
					fatal(fmt.Errorf("query id %d is not resident", q.ID))
				}
				reqs = append(reqs, engine.Request{Measure: m, Kind: kind, Index: &pos, K: gen.K, Eps: q.Eps, Tau: gen.Tau, Workers: 1})
			}
		}
		for _, arm := range []struct {
			name    string
			noIndex bool
		}{{"engine.run_ms.", false}, {"engine.scan_ms.", true}} {
			opts := engine.Options{Measure: m, NoIndex: arm.noIndex}
			e := must(engine.NewFromSnapshot(snap, opts))
			_, err := e.Run(p.ctx, reqs[0]) // lazy set-up (phi tables, pools) is not the steady state
			check(err)
			e.ResetStats()
			n := 0
			p.set(arm.name+op.Name, "ms", p.median(min(3, len(reqs)), func(i int) {
				_, err := e.Run(p.ctx, reqs[i%len(reqs)])
				check(err)
				n++
			})/ms)
			if !arm.noIndex {
				byMeasure[op.Measure] = byMeasure[op.Measure].Merge(e.Stats())
				queries[op.Measure] += n
				if _, done := p.out.Metrics["engine.build_ms."+op.Measure]; !done {
					p.set("engine.build_ms."+op.Measure, "ms", p.median(3, func(int) { must(engine.NewFromSnapshot(snap, opts)) })/ms)
				}
			}
		}
	}
	stride := float64(snap.Index().Layout().Stride() * 8)
	for m, st := range byMeasure {
		nq := float64(queries[m])
		p.set("engine.candidates_per_query."+m, "count", float64(st.Candidates)/nq)
		p.set("engine.completed_per_query."+m, "count", float64(st.Completed)/nq)
		p.set("engine.pruned_ratio."+m, "ratio", 1-float64(st.Completed)/math.Max(1, float64(st.Candidates)))
		p.set("engine.index_skipped_ratio."+m, "ratio", float64(st.SeriesSkippedByIndex)/(nq*float64(snap.Len()-1)))
		// Computed, not measured: every candidate's row counted whole (an
		// upper bound: abandoned scans stop early) plus the low and high
		// region vectors of every bucket visited.
		p.set("engine.bytes_touched_per_query."+m, "bytes", (float64(st.Candidates)*rowBytes(m, samples)+float64(st.BucketsVisited)*2*stride)/nq)
	}
}

// handlerCorpus is the size of the corpus the handler's self time is taken
// on: small, so that the engine's share of a request, and with it the jitter
// of that share, is small against what the handler itself does.
const handlerCorpus = 256

// server times the serving layer around the engine: decoding the bodies of
// the light query set, and the handler's own work on a small corpus.
func (p *probe) server(set []gen.Query) {
	var byID, adhoc []gen.Query
	for _, q := range set {
		if q.Op.AdHoc {
			adhoc = append(adhoc, q)
		} else {
			byID = append(byID, q)
		}
	}
	parse := func(qs []gen.Query) float64 {
		return p.median(50, func(i int) { queryRequest(qs[i%len(qs)]) }) / us
	}
	p.set("server.parse_us", "us", parse(byID))
	p.set("server.parse_adhoc_us", "us", parse(adhoc))

	g := gen.NewCorpus(gen.DatasetSeed, handlerCorpus, 0)
	c := corpus.New(corpusConfig())
	ids, _ := load(c, g)
	srv := server.New(c, server.Options{})
	byID = byID[:0]
	for _, q := range gen.LightMix.QuerySet(g, ids) {
		if !q.Op.AdHoc {
			byID = append(byID, q)
		}
	}
	// Warm every engine, then pair each handler call with a Run of the same
	// request: the handler's self time is the difference.
	for _, q := range byID[:64] {
		must(srv.Run(p.ctx, queryRequest(q)))
	}
	h := srv.Handler()
	var self, enc []float64
	for _, q := range byID {
		req := queryRequest(q)
		var resp *server.QueryResponse
		run := timed(func() { resp = must(srv.Run(p.ctx, req)) })
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest("POST", "/query", bytes.NewReader(q.Body))
		full := timed(func() { h.ServeHTTP(rec, hreq) })
		if rec.Code != 200 {
			fatal(fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String()))
		}
		self = append(self, full-run)
		enc = append(enc, timed(func() { encode(resp) }))
	}
	p.set("server.handler_self_us", "us", stat.Median(self)/us)
	p.set("server.encode_us", "us", stat.Median(enc)/us)
}

// legTimer decorates a shard with the duration of its last Query call.
type legTimer struct {
	cluster.Shard
	last time.Duration
}

func (l *legTimer) Query(ctx context.Context, req server.QueryRequest, bnd *engine.Bound, pbnd *engine.ProbBound) (*server.QueryResponse, error) {
	t0 := time.Now()
	resp, err := l.Shard.Query(ctx, req, bnd, pbnd)
	l.last = time.Since(t0)
	return resp, err
}

type clusterProbe struct {
	co   *cluster.Coordinator
	legs []*legTimer
}

// counter reads one sample name of the process-wide registry through its
// public exposition, summed over its label sets. family is the metric family
// the sample belongs to: the name itself for a counter, the name without
// _count or _sum for a histogram's series.
func counter(family, sample string) float64 {
	rec := httptest.NewRecorder()
	telemetry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	total := 0.0
	if fam := must(telemetry.ParseExposition(rec.Body))[family]; fam != nil {
		for _, sm := range fam.Samples {
			if sm.Name == sample {
				total += sm.Value
			}
		}
	}
	return total
}

func completed(st *server.StatsResponse) int64 {
	var n int64
	for _, m := range st.Measures {
		n += m.Completed
	}
	return n
}

// cluster times the scatter-gather layer: a coordinator over two in-process
// shards holding the base corpus, against the single node holding all of it.
func (p *probe) cluster(g *gen.Corpus, set []gen.Query, single *server.Server) clusterProbe {
	cp := clusterProbe{}
	shards := make([]cluster.Shard, 2)
	for i := range shards {
		lt := &legTimer{Shard: cluster.NewLocal(fmt.Sprintf("shard-%d", i), server.New(corpus.New(corpusConfig()), server.Options{}))}
		cp.legs = append(cp.legs, lt)
		shards[i] = lt
	}
	cp.co = cluster.New(shards, cluster.Options{})
	for lo := 0; lo < len(g.Values); lo += gen.IngestBatch {
		must(cp.co.Mutate(p.ctx, wire(seriesOf(g, lo, min(lo+gen.IngestBatch, len(g.Values))))))
	}
	var reqs []server.QueryRequest
	for _, q := range set {
		if !q.Op.AdHoc {
			reqs = append(reqs, queryRequest(q))
		}
	}
	reqs = reqs[:min(len(reqs), 256)]
	// Same queries on both sides, once each after a warm-up pass, so the
	// Completed counts compare: work wasted by splitting the corpus.
	for _, r := range reqs[:32] {
		must(cp.co.Query(p.ctx, r))
		must(single.Run(p.ctx, r))
	}
	shardDone0, singleDone0 := int64(0), completed(single.Stats())
	for _, sh := range shards {
		shardDone0 += completed(must(sh.Stats(p.ctx)))
	}
	pushes0 := counter(pushesTotal, pushesTotal)
	var total, slowest, skew, merge []float64
	for _, r := range reqs {
		d := timed(func() { must(cp.co.Query(p.ctx, r)) })
		a, b := float64(cp.legs[0].last), float64(cp.legs[1].last)
		total = append(total, d)
		slowest = append(slowest, math.Max(a, b))
		skew = append(skew, math.Max(a, b)/math.Max(1, math.Min(a, b)))
		merge = append(merge, d-math.Max(a, b))
		must(single.Run(p.ctx, r))
	}
	shardDone := -shardDone0
	for _, sh := range shards {
		shardDone += completed(must(sh.Stats(p.ctx)))
	}
	p.set("cluster.query_ms", "ms", stat.Median(total)/ms)
	p.set("cluster.slowest_leg_ms", "ms", stat.Median(slowest)/ms)
	p.set("cluster.leg_skew_ratio", "ratio", stat.Median(skew))
	p.set("cluster.merge_self_us", "us", stat.Median(merge)/us)
	p.set("cluster.bound_pushes_per_query", "count", (counter(pushesTotal, pushesTotal)-pushes0)/float64(len(reqs)))
	p.set("cluster.completed_ratio_vs_single", "ratio", float64(shardDone)/math.Max(1, float64(completed(single.Stats())-singleDone0)))

	ins := fresh(g, 11, 8*8)
	p.set("cluster.mutate_ms", "ms", p.median(3, func(i int) {
		lo := (i % 8) * 8
		must(cp.co.Mutate(p.ctx, wire(ins[lo:lo+8])))
	})/ms)
	return cp
}

// replay sends one cycle of the query set through parse, run and encode, with
// a span around each call, and writes the spans out.
func (p *probe) replay(seed int64, set []gen.Query, run func(server.QueryRequest) (any, error), legs []*legTimer, path string) {
	var spans []stat.Span
	epoch := time.Now()
	open := func(name string, parent, request int) int {
		spans = append(spans, stat.Span{ID: len(spans) + 1, Parent: parent, Request: request, Name: name, StartNS: int64(time.Since(epoch))})
		return len(spans)
	}
	closeSpan := func(id int) { spans[id-1].EndNS = int64(time.Since(epoch)) }

	st := gen.NewStream(gen.SubSeed(seed, "replay"), set)
	var durations []float64
	for r := 1; r <= len(set); r++ {
		q, _ := st.Next()
		root := open("request:"+q.Op.Name, 0, r)
		sp := open("server.parse", root, r)
		req := queryRequest(q)
		closeSpan(sp)
		sp = open("server.run", root, r)
		resp, err := run(req)
		closeSpan(sp)
		check(err)
		if _, sharded := resp.(*cluster.Response); sharded {
			// The legs ran inside the coordinator's call, where only the
			// decorator could time them: both start with the scatter.
			spans[sp-1].Name = "cluster.query"
			for i, l := range legs {
				spans = append(spans, stat.Span{ID: len(spans) + 1, Parent: sp, Request: r, Name: fmt.Sprintf("cluster.leg:shard-%d", i),
					StartNS: spans[sp-1].StartNS, EndNS: spans[sp-1].StartNS + int64(l.last)})
			}
		}
		sp = open("server.encode", root, r)
		encode(resp)
		closeSpan(sp)
		closeSpan(root)
		durations = append(durations, float64(spans[root-1].EndNS-spans[root-1].StartNS))
	}
	p.out.ReplayMeanMS = stat.Mean(durations) / ms

	self := stat.SelfTimes(spans)
	byName := map[string]float64{}
	for _, sp := range spans {
		name, _, _ := strings.Cut(sp.Name, ":")
		byName[name] += float64(self[sp.ID])
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfRow struct {
		Name   string  `json:"name"`
		SelfMS float64 `json:"self_ms"`
	}
	var rows []selfRow
	for _, n := range names {
		rows = append(rows, selfRow{n, byName[n] / ms})
	}
	check(os.MkdirAll(filepath.Dir(path), 0o755))
	check(os.WriteFile(path, must(json.Marshal(struct {
		Note     string      `json:"note"`
		SelfTime []selfRow   `json:"self_time_by_span_name"`
		Spans    []stat.Span `json:"spans"`
	}{"spans recorded by bench/layerprobe around public calls; self time = span minus children", rows, spans})), 0o644))
}

// mutations times the write path of the serving and corpus layers at full
// corpus size. Every insert is a batch of eight, as the workload's writer
// sends them: a batch makes the corpus reserve exactly the rows it needs, a
// single-series insert would double the arenas' capacity and make every
// later insert look cheap.
func (p *probe) mutations(srv *server.Server, c *corpus.Corpus, g *gen.Corpus) {
	p.set("corpus.snapshot_ns", "ns", p.median(1000, func(int) { c.Snapshot() }))

	const batch, reps = 8, 8
	one := must(json.Marshal(gen.QueryRequest{Measure: "euclidean", Type: "topk", K: gen.K, ID: new(int)}))
	req := queryRequest(gen.Query{Body: one})
	steady := p.median(20, func(int) { must(srv.Run(p.ctx, req)) })
	ins := fresh(g, 12, batch*reps)
	var first []float64
	for lo := 0; lo < len(ins); lo += batch {
		must(c.InsertBatch(ins[lo : lo+batch]))
		first = append(first, timed(func() { must(srv.Run(p.ctx, req)) }))
	}
	p.set("server.engine_rebuild_ms", "ms", (stat.Median(first)-steady)/ms)

	ins = fresh(g, 13, batch*reps)
	p.set("server.mutate_ms", "ms", p.medianOf(reps, func(i int) float64 {
		lo := (i % reps) * batch
		return timed(func() { must(srv.Mutate(wire(ins[lo : lo+batch]))) })
	})/ms)

	ins = fresh(g, 14, batch*reps)
	var insertNS, deleteNS []float64
	for lo := 0; lo < len(ins); lo += batch {
		var got []int
		insertNS = append(insertNS, timed(func() { got = must(c.InsertBatch(ins[lo : lo+batch])) }))
		deleteNS = append(deleteNS, timed(func() { must(c.Apply(nil, got)) }))
	}
	p.set("corpus.insert_batch8_ms", "ms", stat.Median(insertNS)/ms)
	p.set("corpus.delete8_ms", "ms", stat.Median(deleteNS)/ms)
}

func dirBytes(dir, prefix string) float64 {
	total := 0.0
	for _, e := range must(os.ReadDir(dir)) {
		if strings.HasPrefix(e.Name(), prefix) {
			total += float64(must(e.Info()).Size())
		}
	}
	return total
}

// store times the durability layer on a store of its own holding the base
// corpus, under the product's default fsync policy.
func (p *probe) store(g *gen.Corpus) {
	dir := must(os.MkdirTemp(p.tmp, "probe-store-"))
	defer os.RemoveAll(dir)
	opts := store.Options{Sync: store.SyncInterval}

	// What the hook adds to an insert of eight is a fraction of a
	// millisecond, and an insert of eight into 8192 resident series takes
	// 20 ms or more with a wide spread; so the hook is timed where the
	// insert itself is cheap, on a small store against a bare corpus of the
	// same size, pair by pair. The hook encodes and writes the mutation
	// only, whatever the corpus holds.
	small := gen.NewCorpus(gen.DatasetSeed, handlerCorpus, 0)
	bare := corpus.New(corpusConfig())
	load(bare, small)
	sst := must(store.Open(filepath.Join(dir, "small"), corpusConfig(), opts))
	load(sst.Corpus(), small)
	ins := fresh(g, 17, 8*64)
	p.set("store.append_ms", "ms", p.medianOf(32, func(i int) float64 {
		lo := (i % 64) * 8
		plain := timed(func() { must(bare.InsertBatch(ins[lo : lo+8])) })
		return timed(func() { must(sst.Corpus().InsertBatch(ins[lo : lo+8])) }) - plain
	})/ms)
	check(sst.Close())

	st := must(store.Open(filepath.Join(dir, "base"), corpusConfig(), opts))
	load(st.Corpus(), g)
	check(st.Checkpoint())
	p.set("store.checkpoint_ms", "ms", p.median(2, func(int) { check(st.Checkpoint()) })/ms)
	userBytes := float64(len(g.Values) * gen.Length * 8)
	p.set("store.checkpoint_bytes_per_user_byte", "ratio", dirBytes(st.Dir(), "checkpoint-")/userBytes)

	// Back-to-back small mutations: what each adds to the WAL and how often
	// the interval policy fsyncs meanwhile.
	const muts = 16
	ins = fresh(g, 15, 8*muts)
	wal0, fsync0 := counter(walBytesTotal, walBytesTotal), counter(fsyncSeconds, fsyncSeconds+"_count")
	for lo := 0; lo < len(ins); lo += 8 {
		must(st.Corpus().InsertBatch(ins[lo : lo+8]))
	}
	p.set("store.wal_bytes_per_user_byte", "ratio", (counter(walBytesTotal, walBytesTotal)-wal0)/(muts*8*gen.Length*8))
	p.set("store.fsyncs_per_mutation", "count", (counter(fsyncSeconds, fsyncSeconds+"_count")-fsync0)/muts)

	// Recovery: reopen the directory with a checkpoint and, past it, four
	// small mutations in the WAL, each followed by an explicit Sync.
	check(st.Checkpoint())
	const replayed = 4
	ins = fresh(g, 16, 8*replayed)
	var syncNS []float64
	for lo := 0; lo < len(ins); lo += 8 {
		must(st.Corpus().InsertBatch(ins[lo : lo+8]))
		syncNS = append(syncNS, timed(func() { check(st.Sync()) }))
	}
	p.set("store.sync_ms", "ms", stat.Median(syncNS)/ms)
	check(st.Close())
	p.set("store.open_recover_ms", "ms", timed(func() { st = must(store.Open(st.Dir(), corpusConfig(), opts)) })/ms)
	if got, want := st.Corpus().Snapshot().Len(), len(g.Values)+8*(muts+replayed); got != want {
		fatal(fmt.Errorf("store recovered %d series, want %d", got, want))
	}
	check(st.Close())
}
