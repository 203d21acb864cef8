package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"reflect"
	"runtime"
	"sort"
	"time"

	"uncertts/internal/arena"
	"uncertts/internal/corpus"
	"uncertts/internal/distance"
	"uncertts/internal/engine"
	"uncertts/internal/munich"
	"uncertts/internal/sketch"
	"uncertts/internal/stats"
	"uncertts/internal/telemetry"
)

// The scan bench is the production-scale arm of -bench: instead of the
// evaluation workload (whose O(N^2) ground truth caps it at a few hundred
// series), it populates a corpus directly — 100k+ series are routine — and
// times each measure's batched scan through the engine, plus a layout A/B
// that runs the identical kernel loop over the contiguous columnar arena
// and over scattered per-series heap copies. The A/B isolates what the
// arena buys: same instructions, same answers, different memory layout.

// ScanMeasureResult records one measure's batched scan at scale. The
// ns_per_op and pruning counters describe the forced plain scan
// (NoIndex), so they stay comparable with pre-index baselines; the
// indexed_* fields describe the same workload with the measure's prefilter
// engaged (tier 0 of the scan for the lock-step measures and PROUD, the
// sketch bucket tree for DTW) — bit-identical answers, fewer candidates.
// IndexedNsPerOp is 0 when the measure has no prefilter (DUST, MUNICH).
type ScanMeasureResult struct {
	Measure          string  `json:"measure"`
	Kind             string  `json:"kind"` // "topk" or "prob_range"
	NsPerOp          int64   `json:"ns_per_op"`
	Matches          int     `json:"matches"`
	Candidates       int64   `json:"candidates"`
	Completed        int64   `json:"completed"`
	AbandonedEarly   int64   `json:"abandoned_early"`
	PrunedByEnvelope int64   `json:"pruned_by_envelope"`
	ResolvedByBounds int64   `json:"resolved_by_bounds"`
	ResolvedEarly    int64   `json:"resolved_early"`
	PrunedFraction   float64 `json:"pruned_fraction"`

	IndexedNsPerOp       int64   `json:"indexed_ns_per_op"`
	BucketsVisited       int64   `json:"buckets_visited"`
	BucketsPruned        int64   `json:"buckets_pruned"`
	SeriesSkippedByIndex int64   `json:"series_skipped_by_index"`
	IndexSkippedFraction float64 `json:"index_skipped_fraction"`
}

// ScanLayoutResult is one kernel's arena-versus-scattered comparison. The
// two timings run byte-for-byte the same scan code over the same values;
// only the placement of the candidate rows differs.
type ScanLayoutResult struct {
	Kernel             string  `json:"kernel"`
	ArenaNsPerScan     int64   `json:"arena_ns_per_scan"`
	ScatteredNsPerScan int64   `json:"scattered_ns_per_scan"`
	ScatteredOverArena float64 `json:"scattered_over_arena"`
}

// ObsBenchResult is the telemetry-overhead A/B: the same per-query
// workload through engine.Run with the full observability envelope live
// (a minted trace in the context, per-query counter/histogram observes,
// tracer finish) and with none of it. ObsOverPlain is the ratio the
// -obs-max gate checks.
type ObsBenchResult struct {
	Measure      string  `json:"measure"`
	PlainNsPerOp int64   `json:"plain_ns_per_op"`
	ObsNsPerOp   int64   `json:"obs_ns_per_op"`
	ObsOverPlain float64 `json:"obs_over_plain"`
}

// ScanBenchReport is the -bench JSON document of the production-scale path.
type ScanBenchReport struct {
	Series       int                 `json:"series"`
	Length       int                 `json:"length"`
	Queries      int                 `json:"queries"`
	Samples      int                 `json:"samples"`
	Workers      int                 `json:"workers"`
	Seed         int64               `json:"seed"`
	Eps          float64             `json:"eps"`
	Tau          float64             `json:"tau"`
	BuildNs      int64               `json:"build_ns"`
	IndexBuildNs int64               `json:"index_build_ns"`
	CalibrateNs  int64               `json:"calibrate_ns"`
	Measures     []ScanMeasureResult `json:"measures"`
	Layout       []ScanLayoutResult  `json:"layout"`
	Obs          ObsBenchResult      `json:"obs"`
}

// scanParams carries the resolved scan-bench configuration.
type scanParams struct {
	series, length, queries, samples, workers int
	shards                                    int // >= 2 selects the cluster bench
	seed                                      int64
	tau                                       float64
	measures                                  []engine.Measure
	maxNs                                     int64
	obsMax                                    float64
}

// scanNoiseFloorNs is the absolute per-query slack of the scan bench's two
// relative gates (prefilter against scan, instrumented against bare): a
// difference under 20 microseconds per query is timer and scheduler noise.
const scanNoiseFloorNs = 20_000

// prefilterSlack is the relative slack of the prefilter gate. Back-to-back
// timings of identical code differ by 5-10% on a shared runner, and on a
// corpus whose bounds are loose (the CI smoke's: 16% of the series skipped
// for DTW) the two arms do tie; the arms this gate exists for lost by
// 1.3-2.3x.
const prefilterSlack = 1.10

// checkPrefilters is the gate on every engaged prefilter arm: it must skip
// series (a dead prefilter silently degrades to the scan plus overhead) and,
// beyond the slack and the noise floor, must not be slower than the scan arm
// of the same run — a prefilter that loses to the scan it fronts is removed,
// not kept.
func checkPrefilters(measures []ScanMeasureResult) error {
	for _, r := range measures {
		if r.IndexedNsPerOp == 0 {
			continue // no prefilter for this measure (DUST, MUNICH), or none engaged at this size
		}
		if r.SeriesSkippedByIndex == 0 {
			return fmt.Errorf("index regression: %s skipped no series through its prefilter", r.Measure)
		}
		if float64(r.IndexedNsPerOp) > prefilterSlack*float64(r.NsPerOp)+scanNoiseFloorNs {
			return fmt.Errorf("index regression: %s prefiltered arm %d ns/op is %.2fx its own scan arm's %d ns/op",
				r.Measure, r.IndexedNsPerOp, float64(r.IndexedNsPerOp)/float64(r.NsPerOp), r.NsPerOp)
		}
	}
	return nil
}

// genScanBatch produces count deterministic synthetic series starting at
// index start: a per-series mixture of two sinusoids plus seeded Gaussian
// noise, with per-timestamp repeated observations for MUNICH.
func genScanBatch(start, count, length, samples int, seed int64) []corpus.Series {
	batch := make([]corpus.Series, count)
	for i := range batch {
		rng := stats.SplitRand(seed, int64(start+i))
		a, b := 0.5+rng.Float64(), 0.5+rng.Float64()
		p1, p2 := 0.05+0.2*rng.Float64(), 0.3+0.5*rng.Float64()
		phase := rng.Float64() * 2 * math.Pi
		s := corpus.Series{Values: make([]float64, length), Label: (start + i) % 8}
		for t := range s.Values {
			ft := float64(t)
			s.Values[t] = a*math.Sin(phase+p1*ft) + b*math.Cos(p2*ft) + 0.1*rng.NormFloat64()
		}
		if samples > 0 {
			s.Samples = make([][]float64, length)
			for t := range s.Samples {
				row := make([]float64, samples)
				for j := range row {
					row[j] = s.Values[t] + 0.1*rng.NormFloat64()
				}
				s.Samples[t] = row
			}
		}
		batch[i] = s
	}
	return batch
}

// buildScanCorpus populates the bench corpus in bounded batches.
func buildScanCorpus(stderr io.Writer, p scanParams) (*corpus.Corpus, error) {
	c := corpus.New(corpus.Config{Length: p.length, ReportedSigma: 0.25})
	const chunk = 4096
	for start := 0; start < p.series; start += chunk {
		count := p.series - start
		if count > chunk {
			count = chunk
		}
		if _, err := c.InsertBatch(genScanBatch(start, count, p.length, p.samples, p.seed)); err != nil {
			return nil, err
		}
		if (start/chunk)%8 == 7 {
			fmt.Fprintf(stderr, "scan bench: %d/%d series resident\n", start+count, p.series)
		}
	}
	return c, nil
}

// calibrateEps returns the average Euclidean distance from each query to
// its 5th-nearest neighbour — the paper's K-NN threshold recipe applied to
// the observation space, so the range queries return non-trivial but small
// answer sets at any scale.
func calibrateEps(values arena.Matrix, qis []int) (float64, error) {
	var sum float64
	for _, qi := range qis {
		q := values.Row(qi)
		var best []float64 // ascending, at most 5
		for ci := 0; ci < values.Rows(); ci++ {
			if ci == qi {
				continue
			}
			d, err := distance.Euclidean(q, values.Row(ci))
			if err != nil {
				return 0, err
			}
			if len(best) < 5 {
				best = append(best, d)
				sort.Float64s(best)
			} else if d < best[4] {
				best[4] = d
				sort.Float64s(best)
			}
		}
		if len(best) == 0 {
			return 0, fmt.Errorf("scan bench: query %d has no neighbours", qi)
		}
		sum += best[len(best)-1]
	}
	return sum / float64(len(qis)), nil
}

// timeAdaptive runs pass once, then keeps re-running (up to rounds) while
// the total elapsed time is under floor, returning the fastest round — full
// best-of-N for quick passes, a single honest measurement for long ones.
func timeAdaptive(rounds int, floor time.Duration, pass func() error) (time.Duration, error) {
	var best time.Duration
	var total time.Duration
	for round := 0; round < rounds; round++ {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		if round == 0 || elapsed < best {
			best = elapsed
		}
		total += elapsed
		if total >= floor {
			break
		}
	}
	return best, nil
}

// scanArm builds an engine over snap with opts, times the query set through
// Engine.Run, and returns the per-query timing, the engine statistics of the
// final round, and that round's (deterministic) answers so the caller can
// assert scan/index parity.
func scanArm(snap *corpus.Snapshot, opts engine.Options, qis []int, eps, tau float64) (nsPerOp int64, matches int, st engine.Stats, res []*engine.Result, indexed bool, err error) {
	e, err := engine.NewFromSnapshot(snap, opts)
	if err != nil {
		return 0, 0, engine.Stats{}, nil, false, err
	}
	elapsed, err := timeAdaptive(3, 2*time.Second, func() error {
		e.ResetStats()
		res, err = runQueries(e, qis, eps, tau)
		return err
	})
	if err != nil {
		return 0, 0, engine.Stats{}, nil, false, err
	}
	for _, r := range res {
		matches += r.Total
	}
	return elapsed.Nanoseconds() / int64(len(qis)), matches, e.Stats(), res, e.Indexed(), nil
}

// runScanBench is the production-scale bench path.
func runScanBench(stdout, stderr io.Writer, p scanParams, asJSON bool) error {
	report := ScanBenchReport{
		Series: p.series, Length: p.length, Queries: p.queries,
		Samples: p.samples, Workers: p.workers, Seed: p.seed, Tau: p.tau,
	}
	start := time.Now()
	c, err := buildScanCorpus(stderr, p)
	if err != nil {
		return err
	}
	report.BuildNs = time.Since(start).Nanoseconds()
	snap := c.Snapshot()
	cols, dense := snap.Columns()
	if !dense {
		return fmt.Errorf("scan bench: corpus snapshot is not dense")
	}
	fmt.Fprintf(stderr, "scan bench: %d x %d built in %v\n", p.series, p.length, time.Since(start).Round(time.Millisecond))

	// The corpus maintained its index incrementally during the insert
	// batches above; time a from-scratch bulk build over the same sketch
	// rows so the report records what a cold rebuild (recovery, compaction)
	// costs at this scale.
	if tree := snap.Index(); tree != nil {
		members := make([]sketch.Member, snap.Len())
		for i := range members {
			members[i] = sketch.Member{ID: snap.Entry(i).ID, Row: i}
		}
		start = time.Now()
		rebuilt := sketch.Build(tree.Layout(), tree.LeafCap(), members, cols.Sketch)
		report.IndexBuildNs = time.Since(start).Nanoseconds()
		if rebuilt.Len() != snap.Len() {
			return fmt.Errorf("scan bench: bulk index rebuild tracks %d members, want %d", rebuilt.Len(), snap.Len())
		}
		fmt.Fprintf(stderr, "scan bench: sketch index bulk-built in %v\n", time.Since(start).Round(time.Millisecond))
	}

	qis := make([]int, p.queries)
	for i := range qis {
		qis[i] = i * (p.series / p.queries)
	}
	start = time.Now()
	eps, err := calibrateEps(cols.Values, qis)
	if err != nil {
		return err
	}
	report.CalibrateNs = time.Since(start).Nanoseconds()
	report.Eps = eps
	fmt.Fprintf(stderr, "scan bench: eps calibrated to %.4f in %v\n", eps, time.Since(start).Round(time.Millisecond))

	for _, m := range p.measures {
		// The scan arm forces the plain scan so ns_per_op stays comparable
		// with pre-index baselines; the indexed arm runs the same workload
		// with the measure's prefilter engaged and must return the same
		// answers.
		linOpts := engine.Options{
			Measure: m, Workers: p.workers, NoIndex: true,
			MUNICH: munich.Options{Bins: 1024},
		}
		nsPerOp, matches, st, linRes, _, err := scanArm(snap, linOpts, qis, eps, p.tau)
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		r := ScanMeasureResult{
			Measure:          m.String(),
			Kind:             "topk",
			NsPerOp:          nsPerOp,
			Matches:          matches,
			Candidates:       st.Candidates,
			Completed:        st.Completed,
			AbandonedEarly:   st.AbandonedEarly,
			PrunedByEnvelope: st.PrunedByEnvelope,
			ResolvedByBounds: st.ResolvedByBounds,
			ResolvedEarly:    st.ResolvedEarly,
		}
		if m.Probabilistic() {
			r.Kind = "prob_range"
		}
		if st.Candidates > 0 {
			r.PrunedFraction = float64(st.Pruned()) / float64(st.Candidates)
		}

		idxOpts := linOpts
		idxOpts.NoIndex = false
		idxNs, _, ist, idxRes, indexed, err := scanArm(snap, idxOpts, qis, eps, p.tau)
		if err != nil {
			return fmt.Errorf("%s indexed: %w", m, err)
		}
		if indexed {
			if !reflect.DeepEqual(idxRes, linRes) {
				return fmt.Errorf("scan bench: %s indexed answers differ from the linear scan", m)
			}
			r.IndexedNsPerOp = idxNs
			r.BucketsVisited = ist.BucketsVisited
			r.BucketsPruned = ist.BucketsPruned
			r.SeriesSkippedByIndex = ist.SeriesSkippedByIndex
			if total := ist.Candidates + ist.SeriesSkippedByIndex; total > 0 {
				r.IndexSkippedFraction = float64(ist.SeriesSkippedByIndex) / float64(total)
			}
		}
		report.Measures = append(report.Measures, r)
		fmt.Fprintf(stderr, "scan bench: %-10s scan %12d ns/op, indexed %12d ns/op  (%d matches, %.1f%% pruned, %.1f%% index-skipped)\n",
			m, r.NsPerOp, r.IndexedNsPerOp, matches, 100*r.PrunedFraction, 100*r.IndexSkippedFraction)
	}

	layout, err := runLayoutBench(stderr, snap, qis, eps, p.measures)
	if err != nil {
		return err
	}
	report.Layout = layout

	obs, err := runObsBench(stderr, snap, p, qis, eps)
	if err != nil {
		return err
	}
	report.Obs = obs
	if p.obsMax > 0 {
		// Tiny absolute deltas are timer noise, not telemetry cost: the
		// ratio gate only fires when the envelope also costs a measurable
		// amount per query.
		if obs.ObsOverPlain > p.obsMax && obs.ObsNsPerOp-obs.PlainNsPerOp > scanNoiseFloorNs {
			return fmt.Errorf("telemetry regression: %s obs arm %d ns/op is %.3fx the plain arm's %d ns/op, exceeding -obs-max %g",
				obs.Measure, obs.ObsNsPerOp, obs.ObsOverPlain, obs.PlainNsPerOp, p.obsMax)
		}
	}

	if p.maxNs > 0 {
		for _, r := range report.Measures {
			if r.NsPerOp > p.maxNs {
				return fmt.Errorf("scan regression: %s %d ns/op exceeds -scan-max-ns %d", r.Measure, r.NsPerOp, p.maxNs)
			}
		}
	}
	// The prefilter gate takes no flag, so it reports after the numbers are
	// out: a run made to record such a finding still records it.
	gate := checkPrefilters(report.Measures)

	if asJSON {
		if err := writeJSON(stdout, report); err != nil {
			return err
		}
		return gate
	}
	fmt.Fprintf(stdout, "scan bench %d series x %d length, %d queries, workers=%d, eps=%.4f\n",
		p.series, p.length, p.queries, p.workers, eps)
	fmt.Fprintf(stdout, "%-10s %6s %14s %14s %10s %12s %12s %10s %10s\n",
		"measure", "kind", "scan-ns/op", "idx-ns/op", "matches", "candidates", "completed", "pruned%", "skipped%")
	for _, r := range report.Measures {
		fmt.Fprintf(stdout, "%-10s %6s %14d %14d %10d %12d %12d %9.1f%% %9.1f%%\n",
			r.Measure, r.Kind, r.NsPerOp, r.IndexedNsPerOp, r.Matches, r.Candidates, r.Completed,
			100*r.PrunedFraction, 100*r.IndexSkippedFraction)
	}
	for _, l := range report.Layout {
		fmt.Fprintf(stdout, "layout %-10s arena %d ns/scan, scattered %d ns/scan (%.2fx)\n",
			l.Kernel, l.ArenaNsPerScan, l.ScatteredNsPerScan, l.ScatteredOverArena)
	}
	fmt.Fprintf(stdout, "obs    %-10s plain %d ns/op, instrumented %d ns/op (%.3fx)\n",
		report.Obs.Measure, report.Obs.PlainNsPerOp, report.Obs.ObsNsPerOp, report.Obs.ObsOverPlain)
	return gate
}

// runObsBench times the per-query Run path with the observability
// envelope fully live against the identical workload with none of it.
// The obs arm mirrors what the server layer adds around every query — a
// minted trace travelling in the context (so the engine records its
// spans), a counter and a latency-histogram observe, and the tracer
// finish that files the trace into the ring — while the plain arm runs
// the same queries with a bare context, where every trace call is a nil
// no-op. The instruments live on a private registry and tracer so bench
// runs never pollute a serving process's /metrics.
func runObsBench(stderr io.Writer, snap *corpus.Snapshot, p scanParams, qis []int, eps float64) (ObsBenchResult, error) {
	m := p.measures[0]
	for _, c := range p.measures {
		if c == engine.MeasureEuclidean {
			m = c
			break
		}
	}
	e, err := engine.NewFromSnapshot(snap, engine.Options{
		Measure: m, Workers: p.workers, NoIndex: true,
		MUNICH: munich.Options{Bins: 1024},
	})
	if err != nil {
		return ObsBenchResult{}, err
	}
	req := func(qi int) engine.Request {
		r := engine.Request{Measure: m, Kind: engine.KindTopK, Index: &qi, K: 10}
		if m.Probabilistic() {
			r.Kind, r.K = engine.KindProbRange, 0
			r.Eps, r.Tau = eps, p.tau
		}
		return r
	}
	kind := engine.KindTopK.String()
	if m.Probabilistic() {
		kind = engine.KindProbRange.String()
	}

	plain, err := timeAdaptive(3, 2*time.Second, func() error {
		for _, qi := range qis {
			if _, err := e.Run(context.Background(), req(qi)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ObsBenchResult{}, err
	}

	reg := telemetry.NewRegistry()
	queries := reg.NewCounterVec("uncertts_bench_obs_queries_total", "Obs-arm query count.", "kind", "measure")
	latency := reg.NewHistogramVec("uncertts_bench_obs_query_duration_seconds", "Obs-arm query latency.", nil, "kind", "measure")
	tracer := telemetry.NewTracer(128, 0, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	obs, err := timeAdaptive(3, 2*time.Second, func() error {
		for _, qi := range qis {
			tr := tracer.StartTrace("", "query")
			tr.SetQuery(kind, m.String())
			start := time.Now()
			_, err := e.Run(telemetry.WithTrace(context.Background(), tr), req(qi))
			latency.With(kind, m.String()).Observe(time.Since(start).Seconds())
			queries.With(kind, m.String()).Inc()
			if err != nil {
				tr.Fail(err)
				tracer.Finish(tr)
				return err
			}
			tracer.Finish(tr)
		}
		return nil
	})
	if err != nil {
		return ObsBenchResult{}, err
	}

	r := ObsBenchResult{
		Measure:      m.String(),
		PlainNsPerOp: plain.Nanoseconds() / int64(len(qis)),
		ObsNsPerOp:   obs.Nanoseconds() / int64(len(qis)),
	}
	if r.PlainNsPerOp > 0 {
		r.ObsOverPlain = float64(r.ObsNsPerOp) / float64(r.PlainNsPerOp)
	}
	fmt.Fprintf(stderr, "obs bench: %s plain %d ns/op, instrumented %d ns/op (%.3fx)\n",
		r.Measure, r.PlainNsPerOp, r.ObsNsPerOp, r.ObsOverPlain)
	return r, nil
}

// scatterRows clones each arena row into its own heap allocation, in
// shuffled order with junk allocations interleaved, reproducing the
// fragmented placement a pointer-per-series corpus converges to. The junk
// is returned so the caller can keep it alive across the timed scans.
func scatterRows(rows func(int) []float64, n int, seed int64) (scat, junk [][]float64) {
	rng := stats.SplitRand(seed, 777)
	perm := rng.Perm(n)
	scat = make([][]float64, n)
	junk = make([][]float64, 0, n)
	for _, i := range perm {
		src := rows(i)
		row := make([]float64, len(src))
		copy(row, src)
		scat[i] = row
		junk = append(junk, make([]float64, 8+rng.Intn(24)))
	}
	return scat, junk
}

// runLayoutBench times the Euclidean and DTW scan kernels over the arena
// rows and over scattered copies of the same values. The per-candidate
// code is shared; only the row lookup differs.
func runLayoutBench(stderr io.Writer, snap *corpus.Snapshot, qis []int, eps float64, measures []engine.Measure) ([]ScanLayoutResult, error) {
	cols, ok := snap.Columns()
	if !ok {
		return nil, fmt.Errorf("layout bench: snapshot is not dense")
	}
	n := snap.Len()
	want := map[engine.Measure]bool{}
	for _, m := range measures {
		want[m] = true
	}
	var out []ScanLayoutResult

	timeScan := func(scan func() error) (int64, error) {
		elapsed, err := timeAdaptive(3, 2*time.Second, scan)
		if err != nil {
			return 0, err
		}
		return elapsed.Nanoseconds() / int64(len(qis)), nil
	}

	if want[engine.MeasureEuclidean] {
		euclScan := func(row func(int) []float64) func() error {
			return func() error {
				for _, qi := range qis {
					q := row(qi)
					var acc float64
					for ci := 0; ci < n; ci++ {
						d, err := distance.Euclidean(q, row(ci))
						if err != nil {
							return err
						}
						acc += d
					}
					if math.IsNaN(acc) {
						return fmt.Errorf("layout bench: NaN accumulator")
					}
				}
				return nil
			}
		}
		arenaNs, err := timeScan(euclScan(cols.Values.Row))
		if err != nil {
			return nil, err
		}
		scat, junk := scatterRows(cols.Values.Row, n, int64(snap.Epoch()))
		scatNs, err := timeScan(euclScan(func(i int) []float64 { return scat[i] }))
		if err != nil {
			return nil, err
		}
		runtime.KeepAlive(junk)
		out = append(out, ScanLayoutResult{
			Kernel: "euclidean", ArenaNsPerScan: arenaNs, ScatteredNsPerScan: scatNs,
			ScatteredOverArena: float64(scatNs) / float64(arenaNs),
		})
		fmt.Fprintf(stderr, "layout euclidean: arena %d ns/scan, scattered %d ns/scan\n", arenaNs, scatNs)
	}

	if want[engine.MeasureDTW] {
		band := snap.Config().Band
		cutoff2 := eps * eps
		dtwScan := func(row, up, lo func(int) []float64) func() error {
			return func() error {
				var scratch distance.DTWScratch
				for _, qi := range qis {
					q := row(qi)
					for ci := 0; ci < n; ci++ {
						if distance.LBKimSquared(q, row(ci)) > cutoff2 {
							continue
						}
						lb, err := distance.LBKeoghSquared(q, up(ci), lo(ci), cutoff2)
						if err != nil {
							return err
						}
						if lb > cutoff2 {
							continue
						}
						if _, _, err := distance.DTWBandEarlyAbandonScratch(q, row(ci), band, cutoff2, nil, &scratch); err != nil {
							return err
						}
					}
				}
				return nil
			}
		}
		arenaNs, err := timeScan(dtwScan(cols.Values.Row, cols.Upper.Row, cols.Lower.Row))
		if err != nil {
			return nil, err
		}
		scatV, junkV := scatterRows(cols.Values.Row, n, int64(snap.Epoch())+1)
		scatU, junkU := scatterRows(cols.Upper.Row, n, int64(snap.Epoch())+2)
		scatL, junkL := scatterRows(cols.Lower.Row, n, int64(snap.Epoch())+3)
		at := func(s [][]float64) func(int) []float64 { return func(i int) []float64 { return s[i] } }
		scatNs, err := timeScan(dtwScan(at(scatV), at(scatU), at(scatL)))
		if err != nil {
			return nil, err
		}
		runtime.KeepAlive(junkV)
		runtime.KeepAlive(junkU)
		runtime.KeepAlive(junkL)
		out = append(out, ScanLayoutResult{
			Kernel: "dtw", ArenaNsPerScan: arenaNs, ScatteredNsPerScan: scatNs,
			ScatteredOverArena: float64(scatNs) / float64(arenaNs),
		})
		fmt.Fprintf(stderr, "layout dtw: arena %d ns/scan, scattered %d ns/scan\n", arenaNs, scatNs)
	}
	return out, nil
}
