// Command uncertquery runs one uncertain similarity query end to end: load
// (or generate) a dataset, perturb it, pick a query series, and answer the
// similarity-matching task with the chosen technique, reporting the matches
// and their agreement with the clean-data ground truth.
//
// Usage:
//
//	uncertquery -dataset CBF -series 40 -technique uema -sigma 0.8 -query 3
//	uncertquery -csv data.csv -technique dust -sigma 0.5 -query 0
//
// Every mode runs on the query engine over the workload's corpus, so the
// technique's geometry is the corpus': -technique dtw matches under -band
// (default length/10; -band -1 is unconstrained DTW).
//
// The topk mode answers a k-nearest-neighbour query through the pruned
// engine (early abandoning, LB_Keogh, shared DUST tables) and reports how
// much of the scan the pruning skipped:
//
//	uncertquery -mode topk -technique dtw -topk 5 -query 3
//
// The probrange mode answers the probabilistic range query PRQ(q, C, eps,
// tau) of the MUNICH and PROUD techniques through the pruned engine —
// envelope, bounding-interval and sample-pair bounds for MUNICH, sound
// prefix bounds for PROUD — with eps defaulting to the calibrated
// ground-truth threshold:
//
//	uncertquery -mode probrange -technique proud -tau 0.05 -query 3
//
// Both engine modes execute through the declarative QueryRequest API
// (engine.Run) and accept -timeout, a deadline the whole execution stack
// honours — the scan stops promptly when it expires:
//
//	uncertquery -mode topk -technique dtw -topk 5 -timeout 500ms
//
// With -data the query runs against a persisted corpus directory (written
// by `uncertgen -out` or `uncertserve -data`) instead of a generated
// workload: the store is opened read-only, recovered exactly as
// uncertserve would, and -query addresses a series by its stable corpus
// ID. Ground-truth reporting (and tau/eps calibration) needs a generated
// workload, so probrange against -data requires explicit -eps and -tau:
//
//	uncertquery -data /var/lib/uncertserve -mode topk -technique uema -topk 5 -query 3
//	uncertquery -data /var/lib/uncertserve -mode probrange -technique proud -eps 4 -tau 0.1 -query 3
//
// With -server the query goes to a running uncertserve — a single node or
// a cluster coordinator, the request shape is identical — over HTTP, and
// -query addresses a stable corpus ID there. A degraded cluster answer
// (shards down or slow) is reported next to the partial result:
//
//	uncertquery -server http://localhost:8080 -mode topk -technique uema -topk 5 -query 3
//	uncertquery -server http://localhost:8090 -mode probrange -technique proud -eps 4 -tau 0.1 -query 3
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"uncertts/internal/cluster"
	"uncertts/internal/core"
	"uncertts/internal/corpus"
	"uncertts/internal/engine"
	"uncertts/internal/experiments"
	"uncertts/internal/server"
	"uncertts/internal/store"
	"uncertts/internal/telemetry"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// config carries every flag; validate checks it before any work runs.
type config struct {
	dataset   string
	csvPath   string
	dataDir   string
	serverURL string
	series    int
	length    int
	seed      int64
	technique string
	sigma     float64
	queryIdx  int
	k         int
	tau       float64
	eps       float64
	mode      string
	topk      int
	band      int
	workers   int
	timeout   time.Duration
}

var (
	validModes = map[string]bool{"match": true, "topk": true, "probrange": true}
	// validTechniques maps each technique to the modes that serve it.
	validTechniques = map[string]map[string]bool{
		"euclidean": {"match": true, "topk": true},
		"uma":       {"match": true, "topk": true},
		"uema":      {"match": true, "topk": true},
		"dtw":       {"match": true, "topk": true},
		"dust":      {"match": true, "topk": true},
		"proud":     {"match": true, "probrange": true},
		"munich":    {"match": true, "probrange": true},
	}
)

// validate rejects bad flag combinations up front with a clear error
// instead of falling through to defaults or failing deep inside a run.
func validate(cfg config) error {
	mode := strings.ToLower(cfg.mode)
	if !validModes[mode] {
		return fmt.Errorf("unknown mode %q (want match, topk or probrange)", cfg.mode)
	}
	technique := strings.ToLower(cfg.technique)
	modes, ok := validTechniques[technique]
	if !ok {
		return fmt.Errorf("unknown technique %q (want euclidean, proud, dust, munich, uma, uema or dtw)", cfg.technique)
	}
	if mode == "probrange" && !modes["probrange"] {
		return fmt.Errorf("technique %q has no probabilistic measure (use proud or munich)", cfg.technique)
	}
	if mode == "topk" && !modes["topk"] {
		return fmt.Errorf("technique %q has no top-k measure (use euclidean, uma, uema, dtw or dust)", cfg.technique)
	}
	if cfg.k < 1 {
		return fmt.Errorf("-k = %d must be at least 1", cfg.k)
	}
	if cfg.topk < 1 {
		return fmt.Errorf("-topk = %d must be at least 1", cfg.topk)
	}
	if cfg.serverURL != "" {
		if cfg.csvPath != "" || cfg.dataDir != "" {
			return fmt.Errorf("-server is mutually exclusive with -csv and -data")
		}
		if mode == "match" {
			return fmt.Errorf("mode match needs a local generated workload with ground truth (use -mode topk or -mode probrange with -server)")
		}
		if mode == "probrange" && (cfg.eps == 0 || cfg.tau == 0) {
			return fmt.Errorf("probrange against -server needs explicit -eps and -tau (calibration needs a generated workload)")
		}
	}
	if cfg.dataDir != "" {
		if cfg.csvPath != "" {
			return fmt.Errorf("-data and -csv are mutually exclusive")
		}
		if mode == "match" {
			return fmt.Errorf("mode match needs a generated workload with ground truth (use -mode topk or -mode probrange with -data)")
		}
		if mode == "probrange" && (cfg.eps == 0 || cfg.tau == 0) {
			return fmt.Errorf("probrange against -data needs explicit -eps and -tau (calibration needs a generated workload)")
		}
	}
	if cfg.csvPath == "" && cfg.dataDir == "" {
		if cfg.series < 2 {
			return fmt.Errorf("-series = %d must be at least 2", cfg.series)
		}
		if cfg.length < 1 {
			return fmt.Errorf("-length = %d must be at least 1", cfg.length)
		}
		if cfg.k >= cfg.series {
			return fmt.Errorf("-k = %d needs more than %d series", cfg.k, cfg.series)
		}
	}
	if cfg.queryIdx < 0 {
		return fmt.Errorf("-query = %d must be non-negative", cfg.queryIdx)
	}
	if cfg.sigma < 0 {
		return fmt.Errorf("-sigma = %v must be non-negative", cfg.sigma)
	}
	if cfg.eps < 0 {
		return fmt.Errorf("-eps = %v must be non-negative", cfg.eps)
	}
	// tau = 0 means "calibrate"; anything else must be a usable threshold
	// (proud accepts (0, 1), munich (0, 1]).
	if cfg.tau != 0 {
		//lint:allow floatcmp munich's tau domain is closed at exactly 1; -tau is parsed, not computed
		ok := cfg.tau > 0 && (cfg.tau < 1 || (technique == "munich" && cfg.tau == 1))
		if !ok {
			return fmt.Errorf("-tau = %v outside the valid range (0 = calibrate; proud needs (0, 1), munich (0, 1])", cfg.tau)
		}
	}
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout = %v must be non-negative (0 = no deadline)", cfg.timeout)
	}
	return nil
}

// checkBand holds -band against the band a persisted corpus was built
// under. The band is corpus geometry — the stored envelopes, sketch rows and
// index all embody it, and engines serve the corpus as it is — so with -data
// the flag can only agree (0 = no opinion).
func checkBand(band, persisted int) error {
	if band != 0 && band != persisted {
		return fmt.Errorf("-band = %d disagrees with the persisted corpus, which was built with band %d (omit -band, or rebuild the corpus with the band you want)", band, persisted)
	}
	return nil
}

// queryContext derives the engine-query context from the -timeout flag
// (0 = no deadline).
func queryContext(cfg config) (context.Context, context.CancelFunc) {
	if cfg.timeout > 0 {
		return context.WithTimeout(context.Background(), cfg.timeout)
	}
	return context.WithCancel(context.Background())
}

func main() {
	var cfg config
	flag.StringVar(&cfg.dataset, "dataset", "CBF", "synthetic dataset to generate (ignored with -csv)")
	flag.StringVar(&cfg.csvPath, "csv", "", "load the dataset from this CSV file instead of generating")
	flag.StringVar(&cfg.dataDir, "data", "", "query a persisted corpus directory (read-only recovery; -query addresses a stable corpus ID)")
	flag.StringVar(&cfg.serverURL, "server", "", "query a running uncertserve or cluster coordinator at this base URL (-query addresses a stable corpus ID)")
	flag.IntVar(&cfg.series, "series", 40, "number of series when generating")
	flag.IntVar(&cfg.length, "length", 96, "series length when generating")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for generation and perturbation")
	flag.StringVar(&cfg.technique, "technique", "uema", "euclidean, proud, dust, munich, uma, uema or dtw")
	flag.Float64Var(&cfg.sigma, "sigma", 0.6, "error standard deviation (normal error)")
	flag.IntVar(&cfg.queryIdx, "query", 0, "query series index")
	flag.IntVar(&cfg.k, "k", 10, "ground-truth neighbourhood size")
	flag.Float64Var(&cfg.tau, "tau", 0, "probability threshold for proud/munich (0 = calibrate)")
	flag.Float64Var(&cfg.eps, "eps", 0, "distance threshold in probrange mode (0 = the calibrated ground-truth eps)")
	flag.StringVar(&cfg.mode, "mode", "match", "match (range query vs ground truth), topk (pruned k-NN) or probrange (pruned probabilistic range query)")
	flag.IntVar(&cfg.topk, "topk", 5, "neighbours to return in topk mode")
	flag.IntVar(&cfg.band, "band", 0, "Sakoe-Chiba half-width of the generated corpus, for dtw in match and topk mode (0 = length/10, negative = unconstrained; with -data it must match the persisted band)")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel workers in topk/probrange mode (0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "deadline for topk/probrange queries, e.g. 500ms (0 = none)")
	flag.Parse()

	if err := validate(cfg); err != nil {
		fatal(err)
	}
	cfg.mode = strings.ToLower(cfg.mode)
	cfg.technique = strings.ToLower(cfg.technique)

	if cfg.serverURL != "" {
		runFromServer(cfg)
		return
	}
	if cfg.dataDir != "" {
		runFromStore(cfg)
		return
	}

	ds, err := loadDataset(cfg.csvPath, cfg.dataset, cfg.series, cfg.length, cfg.seed)
	if err != nil {
		fatal(err)
	}
	n := ds.Series[0].Len()
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, cfg.sigma, n, cfg.seed)
	if err != nil {
		fatal(err)
	}
	samplesPerTS := 0
	if cfg.technique == "munich" {
		samplesPerTS = 5
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: cfg.k, SamplesPerTS: samplesPerTS, Band: cfg.band})
	if err != nil {
		fatal(err)
	}
	if cfg.queryIdx >= w.Len() {
		fatal(fmt.Errorf("query index %d outside [0, %d)", cfg.queryIdx, w.Len()))
	}

	switch cfg.mode {
	case "topk":
		runTopK(w, ds.Name, cfg)
	case "probrange":
		runProbRange(w, ds.Name, cfg)
	default:
		runMatch(w, ds.Name, cfg)
	}
}

// runMatch answers the paper's similarity-matching task (Section 4.1.2) for
// the query and scores the answer against the ground truth.
func runMatch(w *core.Workload, dsName string, cfg config) {
	t := experiments.Technique{Measure: measureFor(cfg.technique), Tau: cfg.tau}
	if t.Measure.Probabilistic() && t.Tau == 0 {
		best, err := calibrateTau(w, t.Measure)
		if err != nil {
			fatal(err)
		}
		t.Tau = best
	}
	// The technique as the report names it: with the parameter it ran under.
	name, geometry := t.Measure.String(), w.Snapshot().Config()
	switch t.Measure {
	case engine.MeasurePROUD, engine.MeasureMUNICH:
		name = fmt.Sprintf("%s(tau=%g)", name, t.Tau)
	case engine.MeasureUMA:
		name = fmt.Sprintf("%s(w=%d)", name, geometry.W)
	case engine.MeasureUEMA:
		name = fmt.Sprintf("%s(w=%d,lambda=%g)", name, geometry.W, geometry.Lambda)
	case engine.MeasureDTW:
		if geometry.Band >= 0 {
			name = fmt.Sprintf("%s(band=%d)", name, geometry.Band)
		}
	}
	got, err := experiments.Match(w, t, cfg.queryIdx)
	if err != nil {
		fatal(err)
	}
	metrics := experiments.Score(got, w.Truth(cfg.queryIdx))

	fmt.Printf("dataset    : %s (%d series x %d points)\n", dsName, w.Len(), w.SeriesLen())
	fmt.Printf("technique  : %s\n", name)
	fmt.Printf("perturbation: normal error, sigma=%.2f\n", cfg.sigma)
	fmt.Printf("query      : series %d (label %d)\n", cfg.queryIdx, w.Exact[cfg.queryIdx].Label)
	fmt.Printf("matches    : %v\n", got)
	fmt.Printf("ground truth: %v\n", w.Truth(cfg.queryIdx))
	fmt.Printf("precision=%.3f recall=%.3f F1=%.3f\n", metrics.Precision, metrics.Recall, metrics.F1)
}

// measureFor maps a validated technique name to its engine measure: the
// technique names are the engine's measure names.
func measureFor(technique string) engine.Measure {
	m, err := engine.ParseMeasure(technique)
	if err != nil {
		fatal(err)
	}
	return m
}

// runFromStore answers the query against a persisted corpus: read-only
// recovery (the exact state uncertserve would serve), engines over the
// recovered snapshot, -query resolved as a stable corpus ID.
func runFromStore(cfg config) {
	st, err := store.Open(cfg.dataDir, corpus.Config{}, store.Options{ReadOnly: true})
	if err != nil {
		fatal(err)
	}
	snap := st.Corpus().Snapshot()
	if snap.Len() == 0 {
		fatal(fmt.Errorf("persisted corpus %s holds no series", cfg.dataDir))
	}
	if err := checkBand(cfg.band, snap.Config().Band); err != nil {
		fatal(err)
	}
	pos, ok := snap.PosOf(cfg.queryIdx)
	if !ok {
		fatal(fmt.Errorf("no series with stable ID %d in %s (IDs are assigned at ingest and never reused)", cfg.queryIdx, cfg.dataDir))
	}
	measure := measureFor(cfg.technique)
	e, err := engine.NewFromSnapshot(snap, engine.Options{Measure: measure, Workers: cfg.workers})
	if err != nil {
		fatal(err)
	}
	ctx, cancel := queryContext(cfg)
	defer cancel()
	req := engine.Request{Measure: measure, Index: &pos, Workers: cfg.workers}
	if cfg.mode == "topk" {
		req.Kind, req.K = engine.KindTopK, cfg.topk
	} else {
		req.Kind, req.Eps, req.Tau = engine.KindProbRange, cfg.eps, cfg.tau
	}
	res, err := e.Run(ctx, req)
	if err != nil {
		fatal(err)
	}
	stats := e.Stats()

	fmt.Printf("corpus     : %s (%d series x %d points, epoch %d)\n", cfg.dataDir, snap.Len(), snap.SeriesLen(), snap.Epoch())
	if cfg.mode == "topk" {
		fmt.Printf("measure    : %s (pruned top-%d)\n", measure, cfg.topk)
	} else {
		fmt.Printf("measure    : %s (pruned probabilistic range, eps=%.4f, tau=%g)\n", measure, cfg.eps, cfg.tau)
	}
	fmt.Printf("query      : series %d (label %d)\n", cfg.queryIdx, snap.Entry(pos).PDF.Label)
	for rank, n := range res.Neighbors {
		fmt.Printf("  #%-2d series %-4d label %-3d distance %.4f\n",
			rank+1, snap.IDAt(n.ID), snap.Entry(n.ID).PDF.Label, n.Distance)
	}
	if res.IDs != nil {
		ids := make([]int, len(res.IDs))
		for i, p := range res.IDs {
			ids[i] = snap.IDAt(p)
		}
		fmt.Printf("matches    : %v\n", ids)
	}
	fmt.Printf("scan       : %s\n", stats)
}

// runFromServer sends the query to a running uncertserve (or cluster
// coordinator — the wire shape is the same) and renders the answer. A
// degraded cluster response is reported shard by shard next to the
// partial result.
func runFromServer(cfg config) {
	req := server.QueryRequest{
		Measure: cfg.technique,
		ID:      &cfg.queryIdx,
		Workers: cfg.workers,
	}
	if cfg.timeout > 0 {
		req.TimeoutMS = cfg.timeout.Milliseconds()
	}
	if cfg.mode == "topk" {
		req.Type, req.K = "topk", cfg.topk
	} else {
		req.Type, req.Eps, req.Tau = "probrange", cfg.eps, cfg.tau
	}
	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	httpResp, err := http.Post(cfg.serverURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer httpResp.Body.Close()
	// The server minted (or adopted) a trace ID for this query and put it
	// in the response header; surface it whenever the answer needs a
	// follow-up look in the slow-query log or /debug/trace.
	traceID := httpResp.Header.Get(telemetry.TraceHeader)
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		if traceID != "" {
			fmt.Fprintf(os.Stderr, "trace id   : %s\n", traceID)
		}
		fatal(fmt.Errorf("%s/query answered %d: %s", cfg.serverURL, httpResp.StatusCode, strings.TrimSpace(string(msg))))
	}
	var resp cluster.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		fatal(err)
	}

	fmt.Printf("server     : %s (epoch %d)\n", cfg.serverURL, resp.Epoch)
	if cfg.mode == "topk" {
		fmt.Printf("measure    : %s (pruned top-%d)\n", resp.Measure, cfg.topk)
	} else {
		fmt.Printf("measure    : %s (pruned probabilistic range, eps=%.4f, tau=%g)\n", resp.Measure, cfg.eps, cfg.tau)
	}
	fmt.Printf("query      : series %d\n", cfg.queryIdx)
	for rank, n := range resp.Neighbors {
		fmt.Printf("  #%-2d series %-4d distance %.4f\n", rank+1, n.ID, n.Distance)
	}
	if resp.IDs != nil {
		fmt.Printf("matches    : %v\n", resp.IDs)
	}
	if resp.Degraded {
		fmt.Printf("DEGRADED   : partial answer, %d shard(s) missing\n", len(resp.ShardErrors))
		for _, se := range resp.ShardErrors {
			fmt.Printf("  shard %-10s %-12s %s\n", se.Shard, se.Kind, se.Error)
		}
		if traceID != "" {
			fmt.Printf("trace id   : %s\n", traceID)
		}
	}
}

// runTopK answers the k-NN query through the pruned engine and reports the
// scan statistics next to a naive full-scan baseline.
func runTopK(w *core.Workload, dsName string, cfg config) {
	measure := measureFor(cfg.technique)
	e, err := engine.NewFromSnapshot(w.Snapshot(), engine.Options{Measure: measure, Workers: cfg.workers})
	if err != nil {
		fatal(err)
	}
	ctx, cancel := queryContext(cfg)
	defer cancel()
	res, err := e.Run(ctx, engine.Request{
		Measure: measure,
		Kind:    engine.KindTopK,
		Index:   &cfg.queryIdx,
		K:       cfg.topk,
	})
	if err != nil {
		fatal(err)
	}
	nn := res.Neighbors
	stats := e.Stats()

	fmt.Printf("dataset    : %s (%d series x %d points)\n", dsName, w.Len(), w.SeriesLen())
	fmt.Printf("measure    : %s (pruned top-%d)\n", measure, cfg.topk)
	fmt.Printf("perturbation: normal error, sigma=%.2f\n", cfg.sigma)
	fmt.Printf("query      : series %d (label %d)\n", cfg.queryIdx, w.Exact[cfg.queryIdx].Label)
	for rank, n := range nn {
		fmt.Printf("  #%-2d series %-4d label %-3d distance %.4f\n",
			rank+1, n.ID, w.Exact[n.ID].Label, n.Distance)
	}
	fmt.Printf("scan       : %s\n", stats)
}

// runProbRange answers the probabilistic range query through the pruned
// engine and reports which bound resolved how much of the scan.
func runProbRange(w *core.Workload, dsName string, cfg config) {
	measure := measureFor(cfg.technique)
	tau := cfg.tau
	if tau == 0 {
		best, err := calibrateTau(w, measure)
		if err != nil {
			fatal(err)
		}
		tau = best
	}
	eps := cfg.eps
	if eps == 0 {
		eps = w.EpsEucl(cfg.queryIdx)
	}
	e, err := engine.NewFromSnapshot(w.Snapshot(), engine.Options{Measure: measure, Workers: cfg.workers})
	if err != nil {
		fatal(err)
	}
	ctx, cancel := queryContext(cfg)
	defer cancel()
	res, err := e.Run(ctx, engine.Request{
		Measure: measure,
		Kind:    engine.KindProbRange,
		Index:   &cfg.queryIdx,
		Eps:     eps,
		Tau:     tau,
	})
	if err != nil {
		fatal(err)
	}
	got := res.IDs
	stats := e.Stats()

	fmt.Printf("dataset    : %s (%d series x %d points)\n", dsName, w.Len(), w.SeriesLen())
	fmt.Printf("measure    : %s (pruned probabilistic range, eps=%.4f, tau=%g)\n", measure, eps, tau)
	fmt.Printf("perturbation: normal error, sigma=%.2f\n", cfg.sigma)
	fmt.Printf("query      : series %d (label %d)\n", cfg.queryIdx, w.Exact[cfg.queryIdx].Label)
	fmt.Printf("matches    : %v\n", got)
	fmt.Printf("ground truth: %v\n", w.Truth(cfg.queryIdx))
	fmt.Printf("scan       : %s\n", stats)
}

func loadDataset(csvPath, name string, series, length int, seed int64) (timeseries.Dataset, error) {
	if csvPath == "" {
		return ucr.Generate(name, ucr.Options{MaxSeries: series, Length: length, Seed: seed})
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return timeseries.Dataset{}, err
	}
	defer f.Close()
	return timeseries.ReadCSV(f, csvPath)
}

// calibrateTau reproduces the paper's "optimal tau" procedure for the
// probabilistic techniques over a fixed query sample, reporting the result
// on stderr. Both the match and probrange paths share it.
func calibrateTau(w *core.Workload, measure engine.Measure) (float64, error) {
	best, _, err := experiments.CalibrateTau(w, experiments.Technique{Measure: measure}, []int{0, 1, 2}, nil)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "calibrated tau = %g\n", best)
	return best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uncertquery:", err)
	os.Exit(1)
}
