// Command uncertbench regenerates the paper's evaluation figures and
// benchmarks the query engine.
//
// Usage:
//
//	uncertbench -exp fig5 -scale medium -seed 42
//	uncertbench -exp all -scale small
//	uncertbench -list
//
// Each experiment prints one or more tables whose rows mirror the series
// plotted in the corresponding figure of the paper.
//
// The -bench mode times one Engine.Run call per query per measure through
// the pruned engine and reports ns/op next to the pruning counters, plus the
// durability subsystem's throughput (WAL ingest, WAL replay on recovery,
// checkpoint load); -json switches the report to machine-readable JSON so
// the perf trajectory can be tracked across changes (the repository keeps
// baselines as BENCH_*.json):
//
//	uncertbench -bench -scale small -json > BENCH.json
//
// One regression gate rides the bench for CI: -replay-max bounds WAL replay
// against fresh ingest (replay rebuilds the same artifacts and must stay in
// the same ballpark).
//
// Passing an explicit shape (-series/-length) or the bench-only preset
// -scale large (100k series x 128 points) switches -bench to the
// production-scale scan bench: the corpus is populated directly (no O(N^2)
// ground truth), eps is calibrated from the query set's Euclidean 5-NN
// distances, every selected measure's query set is timed through the
// engine, and a layout A/B runs the identical Euclidean and DTW kernels
// over the contiguous columnar arena versus scattered per-series heap
// copies. -scan-max-ns turns the per-measure ns/op into a CI gate, and
// -cpuprofile/-memprofile capture pprof profiles of either bench mode:
//
//	uncertbench -bench -scale large -json > BENCH_PR6.json
//	uncertbench -bench -series 10000 -length 256 -measures euclidean,dtw -scan-max-ns 2000000000
//
// Adding -shards N (N >= 2) to the production-scale bench switches to the
// cluster bench: the same corpus is served by a single node and by an
// N-shard in-process scatter-gather cluster, and each top-k measure is
// timed through both, plus through the cluster with mid-flight bound
// propagation disabled — recording the merge overhead and the full
// refinements the shared pruning cut saves (the run fails unless
// propagation strictly reduces them):
//
//	uncertbench -bench -series 100000 -length 128 -samples 0 -shards 4 -measures euclidean,uma,uema,dtw -json > BENCH_PR9.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/munich"
	"uncertts/internal/store"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// run is main with its environment injected, so tests can drive the
// command end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uncertbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment to run (fig4..fig17, chisquare, topk, classify, or 'all')")
		scale     = fs.String("scale", "small", "workload scale: small, medium or full")
		seed      = fs.Int64("seed", 42, "random seed; equal seeds reproduce identical tables")
		list      = fs.Bool("list", false, "list available experiments and exit")
		outDir    = fs.String("out", "", "also write each table as a TSV file into this directory")
		bench     = fs.Bool("bench", false, "benchmark the query engine (every query of a set through Engine.Run, per measure) instead of running experiments")
		jsonOut   = fs.Bool("json", false, "emit -bench results as JSON (machine-readable; requires -bench)")
		benchTau  = fs.Float64("tau", 0.1, "probability threshold of the -bench probabilistic queries")
		replayMax = fs.Float64("replay-max", 0, "fail if WAL replay ns/series exceeds replay-max times ingest ns/series (0 = no check; requires -bench)")

		seriesN    = fs.Int("series", 0, "production-scale scan bench: corpus size (requires -bench; 0 = follow -scale)")
		shardsN    = fs.Int("shards", 0, "cluster bench: serve the scan-bench corpus from this many in-process shards and record merge overhead and bound-propagation gains against a single node (requires -bench and the scan shape; >= 2)")
		lengthN    = fs.Int("length", 0, "production-scale scan bench: series length (requires -bench; 0 = 128 when -series or -scale large selects the scan bench)")
		queriesN   = fs.Int("queries", 8, "scan bench: number of query series")
		samplesN   = fs.Int("samples", 3, "scan bench: repeated observations per timestamp (the MUNICH input; 0 disables MUNICH)")
		workersN   = fs.Int("workers", 0, "scan bench: engine worker bound (0 = GOMAXPROCS)")
		measures   = fs.String("measures", "all", "scan bench: comma-separated measures (euclidean,uma,uema,dtw,dust,proud,munich or 'all')")
		scanMaxNs  = fs.Int64("scan-max-ns", 0, "fail if any scan-bench measure exceeds this ns/op (0 = no check; the CI regression gate)")
		obsMax     = fs.Float64("obs-max", 0, "fail if the telemetry-instrumented scan-bench arm exceeds obs-max times the uninstrumented arm, e.g. 1.03 for a 3% budget (0 = no check)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the -bench run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at the end of the -bench run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range experiments.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if *jsonOut && !*bench {
		return fmt.Errorf("-json requires -bench (experiment tables are TSV; use -out)")
	}
	if *replayMax != 0 && !*bench {
		return fmt.Errorf("-replay-max requires -bench")
	}
	if *replayMax < 0 {
		return fmt.Errorf("-replay-max = %v must be non-negative", *replayMax)
	}
	if !*bench {
		for name, set := range map[string]bool{
			"-series": *seriesN != 0, "-length": *lengthN != 0, "-shards": *shardsN != 0,
			"-scan-max-ns": *scanMaxNs != 0, "-obs-max": *obsMax != 0,
			"-cpuprofile": *cpuprofile != "", "-memprofile": *memprofile != "",
		} {
			if set {
				return fmt.Errorf("%s requires -bench", name)
			}
		}
		if *scale == "large" {
			return fmt.Errorf("-scale large is a bench-only preset (use with -bench)")
		}
	}
	if *seriesN < 0 || *lengthN < 0 || *queriesN <= 0 || *samplesN < 0 || *workersN < 0 {
		return fmt.Errorf("-series/-length/-samples/-workers must be non-negative and -queries positive")
	}
	if *scanMaxNs < 0 {
		return fmt.Errorf("-scan-max-ns = %d must be non-negative", *scanMaxNs)
	}
	if *obsMax != 0 && *obsMax < 1 {
		return fmt.Errorf("-obs-max = %v must be at least 1 (a ratio over the uninstrumented arm; 0 = no check)", *obsMax)
	}
	if *shardsN != 0 && *shardsN < 2 {
		return fmt.Errorf("-shards = %d: a cluster needs at least 2 shards (omit the flag for the single-node bench)", *shardsN)
	}

	if *bench {
		if *benchTau <= 0 || *benchTau >= 1 {
			return fmt.Errorf("-tau = %v outside (0, 1)", *benchTau)
		}
		// An explicit shape (or the large preset) selects the
		// production-scale scan bench over the evaluation-workload bench:
		// the latter computes an O(N^2) ground truth and tops out at a few
		// hundred series.
		if *seriesN > 0 || *lengthN > 0 || *scale == "large" {
			if *replayMax != 0 {
				return fmt.Errorf("-replay-max applies to the workload bench, not the scan bench")
			}
			p := scanParams{
				series: *seriesN, length: *lengthN, queries: *queriesN,
				samples: *samplesN, workers: *workersN, shards: *shardsN,
				seed: *seed, tau: *benchTau, maxNs: *scanMaxNs,
				obsMax: *obsMax,
			}
			if p.series == 0 {
				p.series = 100_000
			}
			if p.length == 0 {
				p.length = 128
			}
			if p.series < 2*p.queries {
				return fmt.Errorf("-series = %d too small for %d queries", p.series, p.queries)
			}
			ms, err := parseMeasures(*measures, p.samples)
			if err != nil {
				return err
			}
			p.measures = ms
			if p.shards >= 2 {
				if p.maxNs != 0 || p.obsMax != 0 {
					return fmt.Errorf("-scan-max-ns/-obs-max gate the scan bench, not the cluster bench")
				}
				return withProfiles(*cpuprofile, *memprofile, func() error {
					return runClusterBench(stdout, stderr, p, *jsonOut)
				})
			}
			return withProfiles(*cpuprofile, *memprofile, func() error {
				return runScanBench(stdout, stderr, p, *jsonOut)
			})
		}
		if *shardsN != 0 {
			return fmt.Errorf("-shards needs the production-scale shape (-series/-length or -scale large)")
		}
		sc, err := experiments.ParseScale(*scale)
		if err != nil {
			return err
		}
		return withProfiles(*cpuprofile, *memprofile, func() error {
			return runBench(stdout, stderr, sc, *seed, *benchTau, *jsonOut, *replayMax)
		})
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Scale: sc, Seed: *seed}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	registry := experiments.Registry()
	for _, name := range names {
		runner, ok := registry[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q; use -list to see the options", name)
		}
		start := time.Now()
		tables, err := runner(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, t := range tables {
			if err := t.Render(stdout); err != nil {
				return err
			}
			if *outDir != "" {
				if err := writeTSV(*outDir, t); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(stderr, "%s done in %v\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "uncertbench:", err)
		os.Exit(1)
	}
}

// parseMeasures resolves the -measures list. "all" expands to every
// measure, minus MUNICH when the bench corpus carries no samples (MUNICH
// requires the repeated-observation model); naming munich explicitly with
// -samples 0 is an error rather than a silent skip.
func parseMeasures(spec string, samples int) ([]engine.Measure, error) {
	if strings.EqualFold(spec, "all") {
		ms := engine.Measures()
		if samples == 0 {
			kept := ms[:0]
			for _, m := range ms {
				if m != engine.MeasureMUNICH {
					kept = append(kept, m)
				}
			}
			ms = kept
		}
		return ms, nil
	}
	var ms []engine.Measure
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		m, err := engine.ParseMeasure(tok)
		if err != nil {
			return nil, err
		}
		if m == engine.MeasureMUNICH && samples == 0 {
			return nil, fmt.Errorf("-measures munich requires -samples > 0")
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("-measures %q selects nothing", spec)
	}
	return ms, nil
}

// withProfiles brackets f with optional CPU and heap profiling.
func withProfiles(cpuPath, memPath string, f func() error) error {
	if cpuPath != "" {
		cf, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	if err := f(); err != nil {
		return err
	}
	if memPath != "" {
		mf, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(mf)
	}
	return nil
}

// writeJSON renders v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// BenchResult is the machine-readable record of one measure's benchmark:
// wall time per query — the query set run one Engine.Run call at a time,
// best of a few rounds — plus the engine's pruning counters over one such
// pass, so the perf trajectory (and the pruning behaviour behind it) can be
// tracked across changes.
type BenchResult struct {
	Measure          string  `json:"measure"`
	Queries          int     `json:"queries"`
	Series           int     `json:"series"`
	Length           int     `json:"length"`
	NsPerOp          int64   `json:"ns_per_op"`
	Candidates       int64   `json:"candidates"`
	Completed        int64   `json:"completed"`
	AbandonedEarly   int64   `json:"abandoned_early"`
	PrunedByEnvelope int64   `json:"pruned_by_envelope"`
	ResolvedByBounds int64   `json:"resolved_by_bounds"`
	ResolvedEarly    int64   `json:"resolved_early"`
	PrunedFraction   float64 `json:"pruned_fraction"`
}

// StoreBenchResult is the machine-readable record of the durability
// subsystem's throughput on the bench workload: the cost of acknowledging
// one series through the write-ahead log, the cost of replaying one series
// from the log on recovery, and the cost of loading one series from a
// checkpoint (each includes rebuilding the derived index artifacts, which
// dominates — the on-disk format's own overhead is the ingest/replay gap).
type StoreBenchResult struct {
	Series                    int   `json:"series"`
	Length                    int   `json:"length"`
	Samples                   int   `json:"samples"`
	IngestNsPerSeries         int64 `json:"ingest_ns_per_series"`
	ReplayNsPerSeries         int64 `json:"replay_ns_per_series"`
	CheckpointLoadNsPerSeries int64 `json:"checkpoint_load_ns_per_series"`
	WALBytesPerSeries         int64 `json:"wal_bytes_per_series"`
}

// BenchReport is the full -bench -json document: per-measure query
// benchmarks plus the store throughput record.
type BenchReport struct {
	Measures []BenchResult    `json:"measures"`
	Store    StoreBenchResult `json:"store"`
}

// benchShape maps a scale to the benchmark workload size.
func benchShape(sc experiments.Scale) (series, length int) {
	switch sc {
	case experiments.ScaleFull:
		return 96, 128
	case experiments.ScaleMedium:
		return 48, 96
	default:
		return 24, 48
	}
}

// runBench times every query of a shared workload through Engine.Run, per
// measure (top-10 for the distance measures, a probabilistic range query at
// the calibrated eps for PROUD and MUNICH), then the durable store's
// ingest/replay/checkpoint throughput on the same shape.
func runBench(stdout, stderr io.Writer, sc experiments.Scale, seed int64, tau float64, asJSON bool, replayMax float64) error {
	series, length := benchShape(sc)
	ds, err := ucr.Generate("CBF", ucr.Options{MaxSeries: series, Length: length, Seed: seed})
	if err != nil {
		return err
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, 0.5, length, seed)
	if err != nil {
		return err
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: 5, SamplesPerTS: 5})
	if err != nil {
		return err
	}
	queries := make([]int, w.Len())
	var epsSum float64
	for i := range queries {
		queries[i] = i
		epsSum += w.EpsEucl(i)
	}
	eps := epsSum / float64(len(queries))

	var results []BenchResult
	for _, m := range engine.Measures() {
		e, err := engine.NewFromSnapshot(w.Snapshot(), engine.Options{Measure: m, MUNICH: munich.Options{Bins: 1024}})
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		// Best of a few rounds, to keep scheduler noise out of the figure;
		// the counters are reset per round, so they describe one pass.
		elapsed, err := bestOfRounds(func() error {
			e.ResetStats()
			_, err := runQueries(e, queries, eps, tau)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		st := e.Stats()
		r := BenchResult{
			Measure:          m.String(),
			Queries:          len(queries),
			Series:           series,
			Length:           length,
			NsPerOp:          elapsed.Nanoseconds() / int64(len(queries)),
			Candidates:       st.Candidates,
			Completed:        st.Completed,
			AbandonedEarly:   st.AbandonedEarly,
			PrunedByEnvelope: st.PrunedByEnvelope,
			ResolvedByBounds: st.ResolvedByBounds,
			ResolvedEarly:    st.ResolvedEarly,
		}
		if st.Candidates > 0 {
			r.PrunedFraction = float64(st.Pruned()) / float64(st.Candidates)
		}
		results = append(results, r)
		fmt.Fprintf(stderr, "%s: %v per op\n", m, elapsed/time.Duration(len(queries)))
	}

	batch := make([]corpus.Series, w.Len())
	for i := range batch {
		batch[i] = corpus.Series{
			Values:  w.PDF[i].Observations,
			Errors:  w.PDF[i].Errors,
			Samples: w.Samples[i].Samples,
			Label:   w.PDF[i].Label,
		}
	}
	storeRes, err := runStoreBench(stderr, batch, length)
	if err != nil {
		return err
	}
	if replayMax > 0 {
		if err := checkReplay(storeRes, replayMax, stderr); err != nil {
			return err
		}
	}

	if asJSON {
		return writeJSON(stdout, BenchReport{Measures: results, Store: storeRes})
	}
	fmt.Fprintf(stdout, "%-10s %14s %12s %12s %10s %10s\n", "measure", "ns/op", "candidates", "completed", "abandoned", "pruned%")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-10s %14d %12d %12d %10d %9.1f%%\n",
			r.Measure, r.NsPerOp, r.Candidates, r.Completed, r.AbandonedEarly, 100*r.PrunedFraction)
	}
	fmt.Fprintf(stdout, "store      ingest %d ns/series, replay %d ns/series, checkpoint load %d ns/series, wal %d B/series\n",
		storeRes.IngestNsPerSeries, storeRes.ReplayNsPerSeries, storeRes.CheckpointLoadNsPerSeries, storeRes.WALBytesPerSeries)
	return nil
}

// runStoreBench measures the durable store on the bench batch: acknowledge
// every series through the WAL one mutation at a time, reopen the
// directory (replaying the whole log), checkpoint, and reopen again (pure
// checkpoint load). Best of benchRounds rounds per metric, fresh directory
// each round.
func runStoreBench(stderr io.Writer, batch []corpus.Series, length int) (StoreBenchResult, error) {
	res := StoreBenchResult{Series: len(batch), Length: length}
	if len(batch) == 0 {
		return res, fmt.Errorf("store bench: empty batch")
	}
	if batch[0].Samples != nil {
		res.Samples = len(batch[0].Samples[0])
	}
	per := func(d time.Duration) int64 { return d.Nanoseconds() / int64(len(batch)) }
	keepMin := func(dst *int64, v int64, first bool) {
		if first || v < *dst {
			*dst = v
		}
	}
	for round := 0; round < benchRounds; round++ {
		dir, err := os.MkdirTemp("", "uncertbench-store-*")
		if err != nil {
			return res, err
		}
		ingest, replay, ckptLoad, walBytes, err := storeBenchRound(dir, batch, length)
		os.RemoveAll(dir)
		if err != nil {
			return res, err
		}
		first := round == 0
		keepMin(&res.IngestNsPerSeries, per(ingest), first)
		keepMin(&res.ReplayNsPerSeries, per(replay), first)
		keepMin(&res.CheckpointLoadNsPerSeries, per(ckptLoad), first)
		keepMin(&res.WALBytesPerSeries, walBytes/int64(len(batch)), first)
	}
	fmt.Fprintf(stderr, "store done (ingest %dns, replay %dns, checkpoint load %dns per series)\n",
		res.IngestNsPerSeries, res.ReplayNsPerSeries, res.CheckpointLoadNsPerSeries)
	return res, nil
}

// storeBenchRound runs one ingest → reopen → checkpoint → reopen cycle.
func storeBenchRound(dir string, batch []corpus.Series, length int) (ingest, replay, ckptLoad time.Duration, walBytes int64, err error) {
	st, err := store.Open(dir, corpus.Config{Length: length, ReportedSigma: 0.5}, store.Options{CheckpointBytes: -1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	start := time.Now()
	for _, s := range batch {
		if _, err := st.Corpus().Insert(s); err != nil {
			st.Close()
			return 0, 0, 0, 0, err
		}
	}
	ingest = time.Since(start)
	walBytes = st.Status().WALBytesSinceCheckpoint
	if err := st.Close(); err != nil {
		return 0, 0, 0, 0, err
	}

	// Recovery is timed through read-only opens: the pure replay path
	// (checkpoint load + WAL decode + artifact rebuild) without the
	// new-segment creation and directory fsyncs a writable open adds —
	// those would swamp the per-series numbers on slow disks.
	start = time.Now()
	st2, err := store.Open(dir, corpus.Config{}, store.Options{ReadOnly: true})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	replay = time.Since(start)
	if st2.Corpus().Len() != len(batch) {
		return 0, 0, 0, 0, fmt.Errorf("store bench: replay recovered %d series, want %d", st2.Corpus().Len(), len(batch))
	}

	stc, err := store.Open(dir, corpus.Config{}, store.Options{CheckpointBytes: -1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if err := stc.Checkpoint(); err != nil {
		stc.Close()
		return 0, 0, 0, 0, err
	}
	if err := stc.Close(); err != nil {
		return 0, 0, 0, 0, err
	}

	start = time.Now()
	st3, err := store.Open(dir, corpus.Config{}, store.Options{ReadOnly: true})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	ckptLoad = time.Since(start)
	if st3.Corpus().Len() != len(batch) {
		return 0, 0, 0, 0, fmt.Errorf("store bench: checkpoint recovered %d series, want %d", st3.Corpus().Len(), len(batch))
	}
	return ingest, replay, ckptLoad, walBytes, nil
}

// replayNoiseFloorNs is the absolute per-series slack of the replay check:
// below it, the ingest/replay gap is scheduler and filesystem noise.
const replayNoiseFloorNs = 25000

// checkReplay fails when WAL replay is slower than maxRatio times fresh
// ingest (beyond the noise floor) — the CI guard that keeps recovery time
// proportional to ingest time. Replay does strictly less work than ingest
// (decode instead of encode+write), so a big gap means the recovery path
// regressed.
func checkReplay(r StoreBenchResult, maxRatio float64, stderr io.Writer) error {
	ratio := float64(r.ReplayNsPerSeries) / float64(r.IngestNsPerSeries)
	fmt.Fprintf(stderr, "replay check: replay/ingest = %.3f\n", ratio)
	if ratio > maxRatio && r.ReplayNsPerSeries-r.IngestNsPerSeries > replayNoiseFloorNs {
		return fmt.Errorf("WAL replay regression beyond %.2fx over ingest: replay %dns vs ingest %dns per series",
			maxRatio, r.ReplayNsPerSeries, r.IngestNsPerSeries)
	}
	return nil
}

// benchRounds is the repetition count of the per-query timing passes; the
// minimum over rounds is reported, which is the standard way to strip
// scheduler noise from a microbenchmark.
const benchRounds = 5

func bestOfRounds(pass func() error) (time.Duration, error) {
	best := time.Duration(0)
	for round := 0; round < benchRounds; round++ {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		if elapsed := time.Since(start); round == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// runQueries is the bench workload of one measure: every query position in
// turn through Engine.Run — top-10 for the distance measures, the
// probabilistic range query at (eps, tau) for PROUD and MUNICH. It returns
// the per-query results in input order.
func runQueries(e *engine.Engine, queries []int, eps, tau float64) ([]*engine.Result, error) {
	out := make([]*engine.Result, len(queries))
	for i := range queries {
		req := engine.Request{Measure: e.Measure(), Kind: engine.KindTopK, Index: &queries[i], K: 10}
		if e.Measure().Probabilistic() {
			req.Kind, req.K, req.Eps, req.Tau = engine.KindProbRange, 0, eps, tau
		}
		res, err := e.Run(context.Background(), req)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// writeTSV saves a table as <dir>/<name>.tsv, one header line plus one line
// per row, tab-separated — directly loadable by gnuplot or pandas.
func writeTSV(dir string, t experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".tsv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(f, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return f.Close()
}
