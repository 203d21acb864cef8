// Command uncertserve serves uncertain-similarity queries over HTTP/JSON:
// a mutable corpus of uncertain series behind /query (topk, range,
// probtopk, probrange across all seven measures), /query/stream
// (incremental NDJSON results), /series (ingest and delete), /stats
// (corpus and per-measure engine accounting), /healthz (liveness plus
// durability state) and /admin/checkpoint (checkpoint + WAL compaction on
// demand).
//
// Usage:
//
//	uncertserve -addr :8080 -dataset CBF -series 64 -length 96 -sigma 0.6 -samples 5
//
// With -data the corpus is durable: every mutation is written ahead to a
// checksummed WAL under the given directory, checkpoints bound recovery
// time, and a restart (or crash) recovers the exact acknowledged state:
//
//	uncertserve -addr :8080 -data /var/lib/uncertserve -fsync always
//	curl -s localhost:8080/series -d '{"insert":[{"values":[...],"sigma":0.6}]}'
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/admin/checkpoint
//
// -fsync picks the durability/throughput trade-off: "always" fsyncs every
// mutation before acknowledging it, "interval" (default) batches fsyncs
// every -fsync-interval. A preload dataset (-dataset) seeds the store only
// when it is empty; on restart the persisted data wins.
//
// Query a resident series by its stable ID, or ship an ad-hoc series.
// Queries run under the request's context — hanging up cancels the scan —
// and accept a per-request timeout_ms (-timeout sets the server default):
//
//	curl -s localhost:8080/query -d '{"measure":"uema","type":"topk","k":5,"id":3,"timeout_ms":500}'
//	curl -s localhost:8080/query -d '{"measure":"proud","type":"probrange","eps":4.5,"tau":0.1,"series":{"values":[...],"sigma":0.6}}'
//	curl -sN localhost:8080/query/stream -d '{"measure":"euclidean","type":"range","eps":6,"id":3}'
//
// On SIGINT/SIGTERM the server shuts down gracefully: in-flight requests
// get a deadline to finish, then the WAL is flushed, a final checkpoint
// is written, and the store is closed.
//
// Scaling out, two ways. -shards N partitions the corpus over N
// in-process shards behind one scatter-gather coordinator in this binary
// (with -data, each shard persists under <data>/shard-<i>); the HTTP
// surface stays /query, /series, /stats, /healthz:
//
//	uncertserve -addr :8090 -shards 4 -data /var/lib/uncertcluster
//
// Or run one plain uncertserve per shard and a separate coordinator-only
// process pointed at them — shard processes serve the /cluster endpoints
// the coordinator scatters over, exchanging the tightening top-k bound
// mid-query:
//
//	uncertserve -addr :8081 -dataset "" -data /var/lib/shard-0 &
//	uncertserve -addr :8082 -dataset "" -data /var/lib/shard-1 &
//	uncertserve -addr :8090 -coordinator http://localhost:8081,http://localhost:8082
//
// -shard-timeout bounds each shard's leg of a query; a shard that misses
// it (or is down) degrades the answer — partial results tagged
// "degraded" with per-shard detail — instead of failing it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"uncertts/internal/cluster"
	"uncertts/internal/corpus"
	"uncertts/internal/munich"
	"uncertts/internal/server"
	"uncertts/internal/store"
	"uncertts/internal/telemetry"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// maxMunichBins caps -munich-bins: every MUNICH refine holds three float64
// histograms of that many bins, so an unbounded count lets one query exhaust
// the process's memory (a runtime fatal, not a recoverable panic).
const maxMunichBins = 1 << 20

type config struct {
	addr       string
	dataset    string
	series     int
	length     int
	seed       int64
	sigma      float64
	samples    int
	defWorkers int
	maxWorkers int
	munichBins int
	timeout    time.Duration
	noIndex    bool

	dataDir       string
	fsync         string
	fsyncEvery    time.Duration
	ckptBytes     int64
	shutdownGrace time.Duration

	shards       int
	coordinator  string
	shardTimeout time.Duration

	pprof     bool
	slowQuery time.Duration
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("uncertserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.dataset, "dataset", "CBF", "synthetic dataset preloaded into the corpus (empty = start empty; ignored when -data was ever mutated)")
	fs.IntVar(&cfg.series, "series", 64, "number of series to preload")
	fs.IntVar(&cfg.length, "length", 96, "series length")
	fs.Int64Var(&cfg.seed, "seed", 1, "generation and perturbation seed")
	fs.Float64Var(&cfg.sigma, "sigma", 0.6, "error standard deviation (normal error)")
	fs.IntVar(&cfg.samples, "samples", 5, "repeated observations per timestamp (0 disables the MUNICH measure)")
	fs.IntVar(&cfg.defWorkers, "workers", 1, "default per-request worker budget")
	fs.IntVar(&cfg.maxWorkers, "max-workers", 0, "per-request worker budget cap (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.munichBins, "munich-bins", 0, fmt.Sprintf("MUNICH convolution estimator bins, at most %d (0 = default)", maxMunichBins))
	fs.DurationVar(&cfg.timeout, "timeout", 0, "default per-query deadline for requests without timeout_ms, e.g. 2s (0 = none)")
	fs.BoolVar(&cfg.noIndex, "no-index", false, "serve every query through the linear scan, ignoring the sketch index")
	fs.StringVar(&cfg.dataDir, "data", "", "durable store directory (empty = in-memory corpus, restart loses everything)")
	fs.StringVar(&cfg.fsync, "fsync", "interval", "WAL fsync policy with -data: always (fsync before acknowledging each mutation) or interval")
	fs.DurationVar(&cfg.fsyncEvery, "fsync-interval", 100*time.Millisecond, "fsync period of -fsync interval")
	fs.Int64Var(&cfg.ckptBytes, "checkpoint-bytes", 8<<20, "WAL bytes past the last checkpoint that trigger a background checkpoint (negative disables)")
	fs.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 10*time.Second, "deadline for in-flight requests on SIGINT/SIGTERM")
	fs.IntVar(&cfg.shards, "shards", 1, "partition the corpus over this many in-process shards behind a scatter-gather coordinator (1 = plain single-node serving)")
	fs.StringVar(&cfg.coordinator, "coordinator", "", "comma-separated shard base URLs; serve as a coordinator-only process over those remote shards")
	fs.DurationVar(&cfg.shardTimeout, "shard-timeout", 0, "per-shard query deadline in cluster modes; a shard missing it degrades the answer (0 = none)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
	fs.DurationVar(&cfg.slowQuery, "slow-query", 0, "log any query slower than this threshold as a structured slow-query record, e.g. 200ms (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.timeout < 0 {
		return cfg, fmt.Errorf("-timeout = %v must be non-negative", cfg.timeout)
	}
	if cfg.length < 1 {
		return cfg, fmt.Errorf("-length = %d must be at least 1", cfg.length)
	}
	if cfg.sigma <= 0 {
		return cfg, fmt.Errorf("-sigma = %v must be positive", cfg.sigma)
	}
	if cfg.samples < 0 {
		return cfg, fmt.Errorf("-samples = %d must be non-negative", cfg.samples)
	}
	if cfg.munichBins < 0 || cfg.munichBins > maxMunichBins {
		return cfg, fmt.Errorf("-munich-bins = %d outside [0, %d]", cfg.munichBins, maxMunichBins)
	}
	if cfg.dataset != "" && cfg.series < 1 {
		return cfg, fmt.Errorf("-series = %d must be at least 1", cfg.series)
	}
	if _, err := store.ParseSyncPolicy(cfg.fsync); err != nil {
		return cfg, err
	}
	if cfg.fsyncEvery <= 0 {
		return cfg, fmt.Errorf("-fsync-interval = %v must be positive", cfg.fsyncEvery)
	}
	if cfg.shutdownGrace <= 0 {
		return cfg, fmt.Errorf("-shutdown-grace = %v must be positive", cfg.shutdownGrace)
	}
	if cfg.shards < 1 {
		return cfg, fmt.Errorf("-shards = %d must be at least 1", cfg.shards)
	}
	if cfg.shardTimeout < 0 {
		return cfg, fmt.Errorf("-shard-timeout = %v must be non-negative", cfg.shardTimeout)
	}
	if cfg.slowQuery < 0 {
		return cfg, fmt.Errorf("-slow-query = %v must be non-negative", cfg.slowQuery)
	}
	if cfg.coordinator != "" {
		if cfg.shards > 1 {
			return cfg, fmt.Errorf("-coordinator and -shards are mutually exclusive (the remote shards own the data)")
		}
		if cfg.dataDir != "" {
			return cfg, fmt.Errorf("-coordinator does not take -data (the remote shards own the durable state)")
		}
	}
	return cfg, nil
}

// openCorpus returns the corpus to serve: a durable one recovered from
// -data when set, an in-memory one otherwise. The store is nil for the
// in-memory case.
func openCorpus(cfg config) (*corpus.Corpus, *store.Store, error) {
	ccfg := corpus.Config{Length: cfg.length, ReportedSigma: cfg.sigma}
	if cfg.dataDir == "" {
		return corpus.New(ccfg), nil, nil
	}
	policy, err := store.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(cfg.dataDir, ccfg, store.Options{
		Sync:            policy,
		SyncEvery:       cfg.fsyncEvery,
		CheckpointBytes: cfg.ckptBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	return st.Corpus(), st, nil
}

// preload seeds the corpus with the perturbed synthetic dataset, but only
// a pristine one: a recovered store keeps exactly its acknowledged state,
// including "operator deleted everything" (epoch > 0 with zero series),
// which must not be papered over with fresh synthetic data.
func preload(c *corpus.Corpus, cfg config, pristine bool) error {
	if cfg.dataset == "" || !pristine {
		return nil
	}
	ds, err := ucr.Generate(cfg.dataset, ucr.Options{MaxSeries: cfg.series, Length: cfg.length, Seed: cfg.seed})
	if err != nil {
		return err
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, cfg.sigma, cfg.length, cfg.seed)
	if err != nil {
		return err
	}
	batch := make([]corpus.Series, len(ds.Series))
	for i, s := range ds.Series {
		ps := pert.PerturbPDF(s)
		batch[i] = corpus.Series{Values: ps.Observations, Errors: ps.Errors, Label: s.Label}
		if cfg.samples > 0 {
			ss, err := pert.PerturbSamples(s, cfg.samples)
			if err != nil {
				return err
			}
			batch[i].Samples = ss.Samples
		}
	}
	_, err = c.InsertBatch(batch)
	return err
}

// buildServer assembles the corpus (durable when -data is set, optionally
// preloaded) and the server around it.
func buildServer(cfg config) (*server.Server, *store.Store, error) {
	c, st, err := openCorpus(cfg)
	if err != nil {
		return nil, nil, err
	}
	pristine := st == nil || c.Snapshot().Epoch() == 0
	if err := preload(c, cfg, pristine); err != nil {
		if st != nil {
			st.Close()
		}
		return nil, nil, err
	}
	return server.New(c, server.Options{
		DefaultWorkers: cfg.defWorkers,
		MaxWorkers:     cfg.maxWorkers,
		DefaultTimeout: cfg.timeout,
		MUNICH:         munich.Options{Bins: cfg.munichBins},
		NoIndex:        cfg.noIndex,
		Store:          st,
	}), st, nil
}

// buildCluster assembles the single-binary multi-shard deployment: N
// in-process shards (each a full corpus + optional store + engine stack,
// persisting under <data>/shard-<i>) behind one scatter-gather
// coordinator. The preload dataset is routed through the coordinator so
// every series lands on its ShardFor home under its global ID — and only
// into a fully pristine cluster, mirroring the single-node rule.
func buildCluster(cfg config) (*cluster.Coordinator, []*store.Store, error) {
	shards := make([]cluster.Shard, cfg.shards)
	var stores []*store.Store
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
	}
	pristine := true
	for i := range shards {
		scfg := cfg
		if cfg.dataDir != "" {
			scfg.dataDir = filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d", i))
		}
		c, st, err := openCorpus(scfg)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if st != nil {
			stores = append(stores, st)
		}
		if c.Snapshot().Epoch() != 0 {
			pristine = false
		}
		shards[i] = cluster.NewLocal(fmt.Sprintf("shard-%d", i), server.New(c, server.Options{
			DefaultWorkers: cfg.defWorkers,
			MaxWorkers:     cfg.maxWorkers,
			MUNICH:         munich.Options{Bins: cfg.munichBins},
			NoIndex:        cfg.noIndex,
			Store:          st,
		}))
	}
	co := cluster.New(shards, cluster.Options{ShardTimeout: cfg.shardTimeout})
	if pristine && cfg.dataset != "" {
		if err := preloadCluster(co, cfg); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return co, stores, nil
}

// preloadCluster seeds a pristine cluster with the same perturbed
// synthetic dataset the single-node preload uses, ingested through the
// coordinator in the same order — so the global IDs (and therefore every
// query answer) match a single node preloaded with the same flags.
func preloadCluster(co *cluster.Coordinator, cfg config) error {
	ds, err := ucr.Generate(cfg.dataset, ucr.Options{MaxSeries: cfg.series, Length: cfg.length, Seed: cfg.seed})
	if err != nil {
		return err
	}
	pert, err := uncertain.NewConstantPerturber(uncertain.Normal, cfg.sigma, cfg.length, cfg.seed)
	if err != nil {
		return err
	}
	req := server.SeriesRequest{Insert: make([]server.SeriesJSON, len(ds.Series))}
	for i, s := range ds.Series {
		ps := pert.PerturbPDF(s)
		sj := server.SeriesJSON{Values: ps.Observations, Sigma: cfg.sigma, Label: s.Label}
		if cfg.samples > 0 {
			ss, err := pert.PerturbSamples(s, cfg.samples)
			if err != nil {
				return err
			}
			sj.Samples = ss.Samples
		}
		req.Insert[i] = sj
	}
	_, err = co.Mutate(context.Background(), req)
	return err
}

// buildHandler assembles the HTTP surface for whichever deployment the
// flags pick: coordinator-only over remote shards, single-binary
// multi-shard, or the plain single node. It returns every store that must
// be checkpointed and closed on shutdown.
func buildHandler(cfg config) (http.Handler, []*store.Store, error) {
	switch {
	case cfg.coordinator != "":
		var shards []cluster.Shard
		for i, u := range strings.Split(cfg.coordinator, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			shards = append(shards, cluster.NewHTTP(fmt.Sprintf("shard-%d", i), strings.TrimRight(u, "/"), nil))
		}
		if len(shards) == 0 {
			return nil, nil, fmt.Errorf("-coordinator needs at least one shard URL")
		}
		co := cluster.New(shards, cluster.Options{ShardTimeout: cfg.shardTimeout})
		log.Printf("uncertserve: coordinating %d remote shards", len(shards))
		return co.Handler(), nil, nil
	case cfg.shards > 1:
		co, stores, err := buildCluster(cfg)
		if err != nil {
			return nil, nil, err
		}
		resident := 0
		for _, sh := range co.Shards() {
			if l, ok := sh.(*cluster.LocalShard); ok {
				resident += l.Server().Corpus().Snapshot().Len()
			}
		}
		log.Printf("uncertserve: %d series over %d in-process shards", resident, cfg.shards)
		return co.Handler(), stores, nil
	default:
		srv, st, err := buildServer(cfg)
		if err != nil {
			return nil, nil, err
		}
		snap := srv.Corpus().Snapshot()
		if st != nil {
			log.Printf("uncertserve: durable store %s at epoch %d (fsync %s)", st.Dir(), snap.Epoch(), cfg.fsync)
			return srv.Handler(), []*store.Store{st}, nil
		}
		log.Printf("uncertserve: %d series x %d points resident", snap.Len(), snap.SeriesLen())
		return srv.Handler(), nil, nil
	}
}

// withPprof mounts the net/http/pprof handlers in front of the serving
// surface. Explicit routes (not the DefaultServeMux side effect of a
// blank import) so the profiles exist only when -pprof asked for them.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// readHeaderTimeout bounds how long a connection may take to deliver its
// request headers. Without it a client that opens a connection and never
// finishes its headers holds a goroutine and a descriptor for ever; no
// honest client needs more than a round trip.
const readHeaderTimeout = 10 * time.Second

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uncertserve:", err)
		os.Exit(2)
	}
	telemetry.DefaultTracer().SetSlowThreshold(cfg.slowQuery)
	handler, stores, err := buildHandler(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uncertserve:", err)
		os.Exit(1)
	}
	if cfg.pprof {
		handler = withPprof(handler)
		log.Printf("uncertserve: pprof profiles on /debug/pprof/")
	}
	log.Printf("uncertserve: listening on %s", cfg.addr)

	httpSrv := newHTTPServer(cfg.addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "uncertserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	log.Printf("uncertserve: shutting down (grace %v)", cfg.shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("uncertserve: shutdown: %v", err)
	}
	for _, st := range stores {
		// Flush + final checkpoint so the next start replays nothing.
		if err := st.Checkpoint(); err != nil && !errors.Is(err, store.ErrClosed) {
			log.Printf("uncertserve: final checkpoint: %v", err)
		}
		if err := st.Close(); err != nil {
			log.Printf("uncertserve: closing store: %v", err)
		}
	}
	log.Printf("uncertserve: bye")
}
