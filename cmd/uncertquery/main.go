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
// Both modes build one server.QueryRequest from the flags, whatever the
// source: a generated workload or a -data corpus answers it with an
// in-process server.Server (Run), and -server posts it to /query. One report
// prints every answer. Both accept -timeout, a deadline the whole execution
// stack honours — the scan stops promptly when it expires:
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
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
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
	if cfg.serverURL != "" || cfg.dataDir != "" {
		// Not a generated workload: no ground truth, nothing to calibrate.
		src := "-data"
		if cfg.serverURL != "" {
			src = "-server"
		}
		if cfg.csvPath != "" || (cfg.serverURL != "" && cfg.dataDir != "") {
			return fmt.Errorf("-server, -data and -csv are mutually exclusive")
		}
		if mode == "match" {
			return fmt.Errorf("mode match needs a generated workload with ground truth (use -mode topk or -mode probrange with %s)", src)
		}
		if mode == "probrange" && (cfg.eps == 0 || cfg.tau == 0) {
			return fmt.Errorf("probrange against %s needs explicit -eps and -tau (calibration needs a generated workload)", src)
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
	if cfg.workers < 0 {
		return fmt.Errorf("-workers = %d must be non-negative (0 = GOMAXPROCS)", cfg.workers)
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

// queryContext derives the query context from the -timeout flag (0 = no
// deadline).
func queryContext(cfg config) (context.Context, context.CancelFunc) {
	if cfg.timeout > 0 {
		return context.WithTimeout(context.Background(), cfg.timeout)
	}
	return context.WithCancel(context.Background())
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "uncertquery:", err)
		os.Exit(1)
	}
}

// run is main with its environment injected, so tests can drive the
// command end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uncertquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.dataset, "dataset", "CBF", "synthetic dataset to generate (ignored with -csv)")
	fs.StringVar(&cfg.csvPath, "csv", "", "load the dataset from this CSV file instead of generating")
	fs.StringVar(&cfg.dataDir, "data", "", "query a persisted corpus directory (read-only recovery; -query addresses a stable corpus ID)")
	fs.StringVar(&cfg.serverURL, "server", "", "query a running uncertserve or cluster coordinator at this base URL (-query addresses a stable corpus ID)")
	fs.IntVar(&cfg.series, "series", 40, "number of series when generating")
	fs.IntVar(&cfg.length, "length", 96, "series length when generating")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for generation and perturbation")
	fs.StringVar(&cfg.technique, "technique", "uema", "euclidean, proud, dust, munich, uma, uema or dtw")
	fs.Float64Var(&cfg.sigma, "sigma", 0.6, "error standard deviation (normal error)")
	fs.IntVar(&cfg.queryIdx, "query", 0, "query series index")
	fs.IntVar(&cfg.k, "k", 10, "ground-truth neighbourhood size")
	fs.Float64Var(&cfg.tau, "tau", 0, "probability threshold for proud/munich (0 = calibrate)")
	fs.Float64Var(&cfg.eps, "eps", 0, "distance threshold in probrange mode (0 = the calibrated ground-truth eps)")
	fs.StringVar(&cfg.mode, "mode", "match", "match (range query vs ground truth), topk (pruned k-NN) or probrange (pruned probabilistic range query)")
	fs.IntVar(&cfg.topk, "topk", 5, "neighbours to return in topk mode")
	fs.IntVar(&cfg.band, "band", 0, "Sakoe-Chiba half-width of the generated corpus, for dtw in match and topk mode (0 = length/10, negative = unconstrained; with -data it must match the persisted band)")
	fs.IntVar(&cfg.workers, "workers", 0, "parallel workers in topk/probrange mode (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "deadline for topk/probrange queries, e.g. 500ms (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validate(cfg); err != nil {
		return err
	}
	cfg.mode = strings.ToLower(cfg.mode)
	cfg.technique = strings.ToLower(cfg.technique)

	req := queryRequest(cfg)
	if cfg.serverURL != "" {
		a, err := post(cfg.serverURL, req, stderr)
		if err != nil {
			return err
		}
		report(stdout, cfg, req, a)
		return nil
	}

	var c *corpus.Corpus
	var a answer
	if cfg.dataDir != "" {
		st, err := store.Open(cfg.dataDir, corpus.Config{}, store.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		defer st.Close()
		c, a.snap = st.Corpus(), st.Corpus().Snapshot()
		if err := checkBand(cfg.band, a.snap.Config().Band); err != nil {
			return err
		}
		a.header = fmt.Sprintf("corpus     : %s (%d series x %d points, epoch %d)", cfg.dataDir, a.snap.Len(), a.snap.SeriesLen(), a.snap.Epoch())
	} else {
		w, name, err := generate(cfg)
		if err != nil {
			return err
		}
		if cfg.mode == "match" {
			return runMatch(stdout, stderr, w, name, cfg)
		}
		if req.Type == "probrange" && req.Tau == 0 {
			if req.Tau, err = calibrateTau(w, measureFor(cfg.technique), stderr); err != nil {
				return err
			}
		}
		if req.Type == "probrange" && req.Eps == 0 {
			req.Eps = w.EpsEucl(cfg.queryIdx)
		}
		c, a.snap, a.w = w.Corpus(), w.Snapshot(), w
		a.header = fmt.Sprintf("dataset    : %s (%d series x %d points)", name, w.Len(), w.SeriesLen())
	}

	// -workers is the query's budget as given: 0 is every core, and the
	// server clamps no request below the flag.
	workers := cmp.Or(cfg.workers, runtime.GOMAXPROCS(0))
	srv := server.New(c, server.Options{DefaultWorkers: workers, MaxWorkers: workers})
	ctx, cancel := queryContext(cfg)
	defer cancel()
	resp, err := srv.Run(ctx, req)
	if err != nil {
		return err
	}
	a.resp = &cluster.Response{QueryResponse: *resp}
	a.scan = srv.Stats().Measures[resp.Measure].Summary
	report(stdout, cfg, req, a)
	return nil
}

// queryRequest is the one query the topk and probrange modes ask, built
// from the flags: a local server runs it, a remote one is posted it. A
// generated workload fills in the calibrated eps and tau the flags leave 0.
func queryRequest(cfg config) server.QueryRequest {
	req := server.QueryRequest{
		Measure: cfg.technique,
		ID:      &cfg.queryIdx,
		Workers: cfg.workers,
		// Rounded up: timeout_ms 0 means no deadline, which a -timeout
		// under a millisecond is not.
		TimeoutMS: (cfg.timeout + time.Millisecond - 1).Milliseconds(),
	}
	if cfg.mode == "topk" {
		req.Type, req.K = "topk", cfg.topk
	} else {
		req.Type, req.Eps, req.Tau = "probrange", cfg.eps, cfg.tau
	}
	return req
}

// answer is one query's answer and what its source knows around it.
type answer struct {
	header string            // the report's first line, naming the source
	resp   *cluster.Response // the answer, in stable corpus IDs
	w      *core.Workload    // ground truth: a generated workload only
	snap   *corpus.Snapshot  // labels: a local corpus only
	// scan is a local server's engine accounting for the measure.
	scan string
	// traceID is the ID a remote server gave the query.
	traceID string
}

// report prints one topk or probrange answer, whatever its source.
func report(out io.Writer, cfg config, req server.QueryRequest, a answer) {
	label := func(id int) int {
		pos, _ := a.snap.PosOf(id)
		return a.snap.Entry(pos).PDF.Label
	}
	fmt.Fprintln(out, a.header)
	if req.Type == "topk" {
		fmt.Fprintf(out, "measure    : %s (pruned top-%d)\n", a.resp.Measure, req.K)
	} else {
		fmt.Fprintf(out, "measure    : %s (pruned probabilistic range, eps=%.4f, tau=%g)\n", a.resp.Measure, req.Eps, req.Tau)
	}
	if a.w != nil {
		fmt.Fprintf(out, "perturbation: normal error, sigma=%.2f\n", cfg.sigma)
	}
	if a.snap != nil {
		fmt.Fprintf(out, "query      : series %d (label %d)\n", *req.ID, label(*req.ID))
	} else {
		fmt.Fprintf(out, "query      : series %d\n", *req.ID)
	}
	for rank, n := range a.resp.Neighbors {
		if a.snap != nil {
			fmt.Fprintf(out, "  #%-2d series %-4d label %-3d distance %.4f\n", rank+1, n.ID, label(n.ID), n.Distance)
		} else {
			fmt.Fprintf(out, "  #%-2d series %-4d distance %.4f\n", rank+1, n.ID, n.Distance)
		}
	}
	if req.Type == "probrange" {
		fmt.Fprintf(out, "matches    : %v\n", a.resp.IDs)
		if a.w != nil {
			fmt.Fprintf(out, "ground truth: %v\n", a.w.Truth(*req.ID))
		}
	}
	if a.resp.Degraded {
		fmt.Fprintf(out, "DEGRADED   : partial answer, %d shard(s) missing\n", len(a.resp.ShardErrors))
		for _, se := range a.resp.ShardErrors {
			fmt.Fprintf(out, "  shard %-10s %-12s %s\n", se.Shard, se.Kind, se.Error)
		}
		if a.traceID != "" {
			fmt.Fprintf(out, "trace id   : %s\n", a.traceID)
		}
	}
	if a.scan != "" {
		fmt.Fprintf(out, "scan       : %s\n", a.scan)
	}
}

// post sends the query to a running uncertserve, or a cluster coordinator
// (the wire shape is the same), and returns its answer.
func post(url string, req server.QueryRequest, stderr io.Writer) (answer, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return answer{}, err
	}
	httpResp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	defer httpResp.Body.Close()
	// The server minted (or adopted) a trace ID for this query and put it
	// in the response header; surface it whenever the answer needs a
	// follow-up look in the slow-query log or /debug/trace.
	a := answer{traceID: httpResp.Header.Get(telemetry.TraceHeader), resp: &cluster.Response{}}
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		if a.traceID != "" {
			fmt.Fprintf(stderr, "trace id   : %s\n", a.traceID)
		}
		return answer{}, fmt.Errorf("%s/query answered %d: %s", url, httpResp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(httpResp.Body).Decode(a.resp); err != nil {
		return answer{}, err
	}
	a.header = fmt.Sprintf("server     : %s (epoch %d)", url, a.resp.Epoch)
	return a, nil
}

// generate builds the perturbed workload of a generated or CSV dataset,
// with the ground truth every report of it quotes.
func generate(cfg config) (*core.Workload, string, error) {
	ds, err := loadDataset(cfg.csvPath, cfg.dataset, cfg.series, cfg.length, cfg.seed)
	if err != nil {
		return nil, "", err
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, cfg.sigma, ds.Series[0].Len(), cfg.seed)
	if err != nil {
		return nil, "", err
	}
	samplesPerTS := 0
	if cfg.technique == "munich" {
		samplesPerTS = 5
	}
	w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: cfg.k, SamplesPerTS: samplesPerTS, Band: cfg.band})
	if err != nil {
		return nil, "", err
	}
	if cfg.queryIdx >= w.Len() {
		return nil, "", fmt.Errorf("query index %d outside [0, %d)", cfg.queryIdx, w.Len())
	}
	return w, ds.Name, nil
}

// runMatch answers the paper's similarity-matching task (Section 4.1.2) for
// the query and scores the answer against the ground truth.
func runMatch(out, stderr io.Writer, w *core.Workload, dsName string, cfg config) error {
	t := experiments.Technique{Measure: measureFor(cfg.technique), Tau: cfg.tau}
	if t.Measure.Probabilistic() && t.Tau == 0 {
		best, err := calibrateTau(w, t.Measure, stderr)
		if err != nil {
			return err
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
		return err
	}
	metrics := experiments.Score(got, w.Truth(cfg.queryIdx))

	fmt.Fprintf(out, "dataset    : %s (%d series x %d points)\n", dsName, w.Len(), w.SeriesLen())
	fmt.Fprintf(out, "technique  : %s\n", name)
	fmt.Fprintf(out, "perturbation: normal error, sigma=%.2f\n", cfg.sigma)
	fmt.Fprintf(out, "query      : series %d (label %d)\n", cfg.queryIdx, w.Exact[cfg.queryIdx].Label)
	fmt.Fprintf(out, "matches    : %v\n", got)
	fmt.Fprintf(out, "ground truth: %v\n", w.Truth(cfg.queryIdx))
	fmt.Fprintf(out, "precision=%.3f recall=%.3f F1=%.3f\n", metrics.Precision, metrics.Recall, metrics.F1)
	return nil
}

// measureFor maps a validated technique name to its engine measure: the
// technique names are the engine's measure names.
func measureFor(technique string) engine.Measure {
	m, _ := engine.ParseMeasure(technique) // validate accepted the name
	return m
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
func calibrateTau(w *core.Workload, measure engine.Measure, stderr io.Writer) (float64, error) {
	best, _, err := experiments.CalibrateTau(w, experiments.Technique{Measure: measure}, []int{0, 1, 2}, nil)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stderr, "calibrated tau = %g\n", best)
	return best, nil
}
