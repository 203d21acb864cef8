package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"uncertts/bench/gen"
	"uncertts/bench/stat"
)

// scale fixes the corpus sizes and the open-loop rates. "default" is the
// benchmark; "smoke" exists for the end-to-end test and "full" is the size
// the issue first asked for, which costs 9 s per set-up on the reference box
// and so does not fit the driver's time budget (see README.md).
type scale struct {
	Name      string        `json:"name"`
	Base      int           `json:"base_series"`
	Sampled   int           `json:"sampled_series"`
	OpenRates []int         `json:"open_rates_qps"`
	Warmup    time.Duration `json:"warmup_ns"`
	// Setups is how many times at least a run sets the server up from
	// scratch; setup_s is the best of them (see runWorkload and best).
	Setups int `json:"setups"`
}

var scales = map[string]scale{
	"default": {Name: "default", Base: 8192, Sampled: 1024, OpenRates: []int{200, 400, 800}, Warmup: 2 * time.Second, Setups: 5},
	"full":    {Name: "full", Base: 16384, Sampled: 4096, OpenRates: []int{100, 200, 400}, Warmup: 3 * time.Second, Setups: 1},
	"smoke":   {Name: "smoke", Base: 512, Sampled: 128, OpenRates: []int{100, 200, 400}, Warmup: 200 * time.Millisecond, Setups: 2},
}

const (
	samplesPerTimestamp = 3 // MUNICH input of the sampled corpus
	rounds              = 6 // cycles a reader's metric should have to choose from at least; time slices of the writer's metrics
	verifyPerOp         = 16
	quiesce             = 250 * time.Millisecond // idle time before the SIGKILL: 2.5 fsync intervals
	openPhase           = 2 * time.Second        // longest open-loop phase per fixed rate
	setupTime           = 4 * time.Second        // set-ups beyond scale.Setups stop once this much went into them
)

// workload is one traffic mix against one deployment.
type workload struct {
	Name    string
	Why     string
	Sampled bool     // ingest the sampled corpus instead of base
	Args    []string // extra uncertserve flags
	Durable bool     // -data <tmp> -fsync interval, then crash and recover
	Mix     gen.Mix
	// StreamKey names the request streams. sharded shares query_light's, so
	// both receive byte-identical request sequences.
	StreamKey string
	Open      bool // open-loop phases after the closed loop
	Writer    bool // one of the two clients mutates instead of querying
	// Driver says the workload is listed in BENCHMARK.json. mixed_durable is
	// not: the driver's time limit pays for three workloads of 25 s, not four
	// (at four, 15 s, it refused query_heavy for noise), and this is the one
	// whose noise is the price of fresh memory, which no estimator removes.
	Driver bool
}

var workloads = []workload{
	{
		Name: "query_light", Mix: gen.LightMix, StreamKey: "light", Open: true, Driver: true,
		Why: "cheap queries (1-5 ms), so server parse/plan/encode, sketch descent and the bound cascade are each a visible share; the only workload with an arrival schedule, so queueing shows",
	},
	{
		Name: "query_heavy", Mix: gen.HeavyMix, StreamKey: "heavy", Sampled: true, Driver: true,
		Why: "kernel-bound dtw:dust:munich = 4:1:1 on the sampled corpus: distance, dust, munich and the engine cascade do nearly all the work, the server layer almost none; the inverse of query_light",
	},
	{
		Name: "mixed_durable", Mix: gen.LightMix, StreamKey: "mixed", Durable: true, Writer: true,
		Why: "light-mix reader plus a writer (7 x insert-8, 1 x delete-56) on a durable store, then SIGKILL and recovery: only here are engine rebuild, corpus grow, WAL and recovery on the critical path",
	},
	{
		Name: "sharded", Mix: gen.LightMix, StreamKey: "light", Args: []string{"-shards", "2"}, Driver: true,
		Why: "byte-identical requests to query_light against uncertserve -shards 2: the difference isolates scatter, merge and bound propagation of the cluster layer, idle in the other three",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	env     *env
	sc      scale
	seed    int64
	seconds float64
}

// instance is a set-up server: process, client and the ids it acknowledged.
type instance struct {
	ch      *child
	cl      *client
	dataDir string // "" when in-memory
	ids     []int  // ids[i] is the id of corpus series i
}

func (in *instance) discard() {
	in.cl.close()
	in.ch.kill()
	if in.dataDir != "" {
		removeTempDir(in.dataDir)
	}
}

func (rc runConfig) serverArgs(wl workload, dataDir string) []string {
	args := []string{"-dataset", "", "-length", strconv.Itoa(gen.Length), "-sigma", strconv.FormatFloat(gen.Sigma, 'g', -1, 64)}
	args = append(args, wl.Args...)
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-fsync", "interval")
	}
	return args
}

// setUp starts a server and ingests the corpus; the returned duration is
// setup_s: child start until /healthz reports the whole corpus.
func (rc runConfig) setUp(wl workload, bodies [][]byte, n int) (*instance, time.Duration, error) {
	in := &instance{}
	if wl.Durable {
		dir, err := newTempDir(rc.env.buildDir, "data-")
		if err != nil {
			return nil, 0, err
		}
		in.dataDir = dir
	}
	start := time.Now()
	ch, err := startChild(rc.env.serverBin, rc.serverArgs(wl, in.dataDir)...)
	if err != nil {
		return nil, 0, err
	}
	in.ch, in.cl = ch, newClient(ch.url)
	fail := func(err error) (*instance, time.Duration, error) {
		in.discard()
		return nil, 0, err
	}
	if err := in.cl.waitHealthy(ch, 0, 30*time.Second); err != nil {
		return fail(err)
	}
	for i, body := range bodies {
		var r seriesResponse
		if err := in.cl.post("/series", body, &r); err != nil {
			if dead := ch.alive(); dead != nil {
				err = dead
			}
			return fail(fmt.Errorf("ingest batch %d: %w", i, err))
		}
		in.ids = append(in.ids, r.IDs...)
	}
	if len(in.ids) != n {
		return fail(fmt.Errorf("server acknowledged %d ids for %d series", len(in.ids), n))
	}
	if err := in.cl.waitHealthy(ch, n, 30*time.Second); err != nil {
		return fail(err)
	}
	return in, time.Since(start), nil
}

// corpusOf generates the corpus a workload ingests.
func (rc runConfig) corpusOf(wl workload) (*gen.Corpus, error) {
	n, samples := rc.sc.Base, 0
	if wl.Sampled {
		n, samples = rc.sc.Sampled, samplesPerTimestamp
	}
	if n <= gen.K+1 {
		return nil, fmt.Errorf("corpus of %d series is too small for k = %d", n, gen.K)
	}
	return gen.NewCorpus(gen.DatasetSeed, n, samples), nil
}

// traffic is the load of one run: the fixed query set, one stream of it per
// reader connection, and the writer that takes the second connection in
// mixed_durable.
type traffic struct {
	set     []gen.Query
	readers int
	wr      *writer
	seed    int64
	key     string
}

func (rc runConfig) trafficOf(wl workload, corpus *gen.Corpus, ids []int) *traffic {
	t := &traffic{set: wl.Mix.QuerySet(corpus, ids), readers: connections, seed: rc.seed, key: wl.StreamKey}
	if wl.Writer {
		t.readers--
		t.wr = newWriter(corpus, gen.SubSeed(rc.seed, "writer"))
	}
	return t
}

// stream seeds one stream of the query set; equal (seed, key, part, i) give
// byte-identical request sequences.
func (t *traffic) stream(part string, i int) *gen.Stream {
	return gen.NewStream(gen.SubSeed(t.seed, fmt.Sprint(t.key, "-", part, "-", i)), t.set)
}

// closed runs one closed-loop phase over fresh streams of the named part.
func (t *traffic) closed(cl *client, part string, dur time.Duration) (queries, writes []sample) {
	streams := make([]*gen.Stream, t.readers)
	for i := range streams {
		streams[i] = t.stream(part, i)
	}
	return closedLoop(cl, streams, t.wr, dur)
}

// runWorkload runs one workload start to finish: set up (several times),
// warm up, measure, verify, and for the durable workload crash and recover.
func (rc runConfig) runWorkload(wl workload) (res *workloadResult, err error) {
	res = newResult(wl.Name, rc)
	corpus, err := rc.corpusOf(wl)
	if err != nil {
		return nil, err
	}
	n, bodies := len(corpus.Values), corpus.IngestBodies()

	// Set-ups repeat sc.Setups times at least, and up to three times that
	// while less than setupTime has gone into them: the sampled corpus sets up
	// in a fifth of a second, and one burst of a neighbour covers five of
	// those. The last one serves the measured phases.
	var in *instance
	var setups []float64
	spent := time.Duration(0)
	for len(setups) < rc.sc.Setups || (spent < setupTime && len(setups) < 3*rc.sc.Setups) {
		if in != nil {
			in.discard()
		}
		var took time.Duration
		if in, took, err = rc.setUp(wl, bodies, n); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
		spent += took
	}
	defer func() { in.discard() }()
	res.Metrics["setup_s"] = best("s", lower, setups, len(setups))
	logf("%s: set up %d series %d times, best %.2fs, median %.2fs", wl.Name, n, len(setups), res.Metrics["setup_s"].Value, stat.Median(setups))

	tr := rc.trafficOf(wl, corpus, in.ids)
	tr.closed(in.cl, "warm", rc.sc.Warmup)
	if err := in.ch.alive(); err != nil {
		return nil, err
	}

	closedDur := time.Duration(rc.seconds * float64(time.Second))
	openDur := time.Duration(0)
	if wl.Open {
		// Each fixed rate gets 2/15 of the time and at most openPhase; the
		// closed loop, which the driver's metrics come from, gets the rest.
		openDur = min(closedDur*2/15, openPhase)
		closedDur -= openDur * time.Duration(len(rc.sc.OpenRates))
	}
	queries, writes := tr.closed(in.cl, "closed", closedDur)
	res.addPhase("closed", append(queries, writes...))
	if err := res.closedMetrics(wl, len(tr.set), tr.readers, queries, writes, closedDur); err != nil {
		return nil, err
	}

	if wl.Open {
		send := func(q gen.Query) error {
			var r queryResponse
			if err := in.cl.post("/query", q.Body, &r); err != nil {
				return err
			}
			return checkShape(q, &r)
		}
		slo := 0.0
		for _, rate := range rc.sc.OpenRates {
			st := tr.stream("open", rate)
			qs := make([]gen.Query, max(4, int(float64(rate)*openDur.Seconds())))
			for i := range qs {
				qs[i], _ = st.Next()
			}
			or := openLoop(send, qs, rate, openDur)
			res.addPhase("open_r"+strconv.Itoa(rate), or.samples)
			if res.openMetrics(or) {
				slo = float64(rate)
			}
		}
		res.Metrics["slo_rate_qps"] = metricValue{Value: slo, Unit: "1/s", Samples: 1}
	}

	rss, err := in.ch.rssPeakMB()
	if err != nil {
		return nil, fmt.Errorf("reading the server's peak RSS: %w", err)
	}
	res.Metrics["server_rss_mb"] = metricValue{Value: rss, Unit: "MB", Samples: 1}
	if err := in.ch.alive(); err != nil {
		return nil, err
	}

	// Ground truth after the measured phases: the corpus plus what the
	// writer inserted and did not delete.
	truth := newTruth(corpus, in.ids, tr.wr)
	res.verify(in.cl, wl.Mix.VerifySet(gen.SubSeed(rc.seed, wl.StreamKey+"-verify"), corpus, in.ids, verifyPerOp), truth)

	if wl.Durable {
		if err := rc.crashAndRecover(wl, in, truth, res); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// crashAndRecover lets the fsync interval pass, kills the server with
// SIGKILL, restarts it on the same directory and times how long it takes to
// answer /healthz with every acknowledged series. Each insert the writer got
// acknowledged and did not delete must then answer a query by id.
func (rc runConfig) crashAndRecover(wl workload, in *instance, truth *truth, res *workloadResult) error {
	time.Sleep(quiesce)
	in.cl.close()
	start := time.Now()
	in.ch.kill()
	ch, err := startChild(rc.env.serverBin, rc.serverArgs(wl, in.dataDir)...)
	if err != nil {
		return err
	}
	in.ch, in.cl = ch, newClient(ch.url)
	if err := in.cl.waitHealthy(ch, len(truth.ids), 60*time.Second); err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	res.Metrics["recovery_s"] = metricValue{Value: time.Since(start).Seconds(), Unit: "s", Samples: 1}

	var checks []sample
	probe := truth.ids[:min(len(truth.ids), 64)] // the oldest base series
	probe = append(slices.Clone(probe), truth.written...)
	for _, id := range probe {
		body := gen.MustJSON(gen.QueryRequest{Measure: "euclidean", Type: "topk", K: 1, ID: &id})
		var r queryResponse
		err := in.cl.post("/query", body, &r)
		if err == nil && len(r.Neighbors) != 1 {
			err = errors.New("no neighbour")
		}
		if err != nil {
			err = fmt.Errorf("acknowledged series %d after recovery: %w", id, err)
			res.fail(err.Error())
		}
		checks = append(checks, sample{op: "post_crash", err: err})
	}
	res.addPhase("post_crash", checks)
	return nil
}

// cyclesOf cuts the query samples into complete cycles. Every cycle of every
// reader sends the same fixed query set in a different order, so cycles are
// rounds of equal work and their timings compare directly. A cycle is
// complete once its reader started the next one; the unfinished cycle at the
// end of the phase is left out. Each returned cycle carries its duration.
func cyclesOf(samples []sample, readers int) (cycles [][]sample, durations []time.Duration) {
	for r := range readers {
		var cur []sample
		begin := time.Duration(0)
		for _, s := range samples { // per reader, samples are in completion order
			if s.reader != r {
				continue
			}
			if len(cur) > 0 && s.cycle != cur[0].cycle {
				end := cur[len(cur)-1].at
				cycles, durations = append(cycles, cur), append(durations, end-begin)
				cur, begin = nil, end
			}
			cur = append(cur, s)
		}
	}
	return cycles, durations
}

// timeRounds cuts the writer's samples into `rounds` equal parts of the phase
// by completion time: every mutation is the same work, so equal time is
// equal work. Samples that completed after the phase ended belong to none.
func timeRounds(samples []sample, dur time.Duration) [][]sample {
	out := make([][]sample, rounds)
	for _, s := range samples {
		if s.at < dur {
			r := int(int64(s.at) * rounds / int64(dur))
			out[r] = append(out[r], s)
		}
	}
	return out
}

func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.err == nil && keep(s) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

func anyOp(sample) bool { return true }

// closedMetrics turns the closed-loop samples into metrics. The reader's are
// computed per cycle and reported as the best cycle (see best), the writer's
// per time slice and reported as the median slice; the median and quartiles
// of the rounds go into the result file either way.
func (res *workloadResult) closedMetrics(wl workload, cycleLen, readers int, queries, writes []sample, dur time.Duration) error {
	cycles, durations := cyclesOf(queries, readers)
	if len(cycles) == 0 {
		return fmt.Errorf("no reader completed a cycle of %d queries in %v: lengthen --seconds", cycleLen, dur)
	}
	if len(cycles) < rounds {
		res.note(fmt.Sprintf("closed loop completed %d cycles, fewer than the %d a metric should have to choose from", len(cycles), rounds))
	}
	perRound := func(rs [][]sample, f func(int, []sample) (float64, bool)) []float64 {
		var out []float64
		for i, r := range rs {
			if v, ok := f(i, r); ok {
				out = append(out, v)
			}
		}
		return out
	}
	pct := func(p float64, keep func(sample) bool) func(int, []sample) (float64, bool) {
		return func(_ int, r []sample) (float64, bool) {
			l := latenciesMS(r, keep)
			return stat.Percentile(l, p), len(l) > 0
		}
	}
	// A reader's rate over one cycle, times the readers: all of them cycle
	// through the same work at the same time.
	qps := func(i int, r []sample) (float64, bool) {
		return float64(readers) * float64(len(latenciesMS(r, anyOp))) / durations[i].Seconds(), true
	}
	nq := 0
	for _, c := range cycles {
		nq += len(c)
	}
	res.Metrics["throughput_qps"] = best("1/s", higher, perRound(cycles, qps), nq)
	res.Metrics["query_p50_ms"] = best("ms", lower, perRound(cycles, pct(50, anyOp)), nq)
	res.Metrics["query_p90_ms"] = best("ms", lower, perRound(cycles, pct(90, anyOp)), nq)
	// p99 only where a cycle's samples put about ten beyond it; on
	// query_heavy it would be the maximum of a handful.
	if slices.Contains(onLightMix, wl.Name) {
		res.Metrics["query_p99_ms"] = best("ms", lower, perRound(cycles, pct(99, anyOp)), nq)
	}
	for i := range wl.Mix.Ops {
		op := wl.Mix.Ops[i]
		of := func(s sample) bool { return s.op == op.Name }
		n := nq * op.Weight * wl.Mix.Pool / cycleLen
		if wl.Name == "query_heavy" {
			res.Metrics[op.Measure+"_p50_ms"] = best("ms", lower, perRound(cycles, pct(50, of)), n)
			res.setDiag(op.Measure+"_p90_ms", "ms", perRound(cycles, pct(90, of)), n)
		} else {
			res.setDiag(op.Name+"_p50_ms", "ms", perRound(cycles, pct(50, of)), n)
		}
	}
	if wl.Writer {
		wr := timeRounds(writes, dur)
		roundLen := dur.Seconds() / rounds
		nw := len(latenciesMS(writes, anyOp))
		res.setMetric("write_p50_ms", "ms", perRound(wr, pct(50, anyOp)), nw)
		res.setMetric("ingest_series_per_s", "1/s", perRound(wr, func(_ int, r []sample) (float64, bool) {
			n := 0
			for _, s := range r {
				if s.err == nil {
					n += s.series
				}
			}
			return float64(n) / roundLen, true
		}), nw)
		res.setDiag("insert8_p50_ms", "ms", perRound(wr, pct(50, func(s sample) bool { return s.op == "insert" })), nw)
	}
	return nil
}

// openMetrics records one fixed-rate phase and reports whether the rate met
// the latency limit.
func (res *workloadResult) openMetrics(or openResult) bool {
	lat := latenciesMS(or.samples, anyOp)
	failed := len(or.samples) - len(lat)
	p99 := stat.Percentile(lat, 99)
	late := make([]float64, len(or.lateness))
	for i, d := range or.lateness {
		late[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(late)
	key := "open_r" + strconv.Itoa(or.rate)
	res.Diagnostics[key+".p99_ms"] = metricValue{Value: p99, Unit: "ms", Samples: 1, N: len(lat)}
	res.Diagnostics[key+".p50_ms"] = metricValue{Value: stat.Percentile(lat, 50), Unit: "ms", Samples: 1, N: len(lat)}
	res.Diagnostics[key+".generator_lateness_p99_ms"] = metricValue{Value: stat.Percentile(late, 99), Unit: "ms", Samples: 1, N: len(late)}
	res.Diagnostics[key+".backlog_early"] = metricValue{Value: or.backlogEarly, Unit: "count", Samples: 1}
	res.Diagnostics[key+".backlog_late"] = metricValue{Value: or.backlogLate, Unit: "count", Samples: 1}
	res.Diagnostics[key+".unsent"] = metricValue{Value: float64(or.unsent), Unit: "count", Samples: 1}
	if !stat.Supports(len(lat), 99) {
		res.note(fmt.Sprintf("%s.p99_ms: %d samples put fewer than ten beyond p99; lengthen the run before citing it", key, len(lat)))
	}
	growing := or.backlogLate > or.backlogEarly+1
	return p99 <= sloLimitMS && failed == 0 && or.unsent == 0 && !growing
}

func (rc runConfig) outDir() string { return filepath.Join(rc.env.benchDir, "out") }
