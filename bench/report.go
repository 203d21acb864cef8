package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"

	"uncertts/bench/gen"
	"uncertts/bench/stat"
)

// metricValue is one reported number. Value is what the driver sees and what
// -compare and -sets judge. Stat says how it follows from the rounds:
// "median" (the writer's time slices, repeated measurements) or "best"
// (set-ups and cycles of the closed loop: the quickest one, see best). Median and
// quartiles of the rounds are kept either way, with how many rounds there
// were and how many observations lie behind them.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Stat    string  `json:"stat,omitempty"`
	Median  float64 `json:"median,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Samples int     `json:"samples,omitempty"` // rounds or repeated measurements
	N       int     `json:"n,omitempty"`       // observations behind them
}

type phaseCount struct {
	Phase     string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Workload string  `json:"workload"`
	Set      int     `json:"set"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Correct  bool    `json:"correct"`
	// Attempted and Failed count every request of the measured, verify and
	// post-crash phases; a failure is an error, a refusal, a degraded answer
	// or a failed verification.
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Phases        []phaseCount           `json:"phases"`
	Metrics       map[string]metricValue `json:"metrics"`
	Diagnostics   map[string]metricValue `json:"diagnostics,omitempty"`
	AnswersSHA256 string                 `json:"answers_sha256,omitempty"`
	// Failures are verification failures (each makes the run incorrect);
	// Findings are observations that are results in themselves.
	Failures []string `json:"failures,omitempty"`
	Findings []string `json:"findings,omitempty"`
}

func newResult(workload string, rc runConfig) *workloadResult {
	return &workloadResult{
		Workload: workload, Seed: rc.seed, Seconds: rc.seconds, Correct: true,
		Metrics: map[string]metricValue{}, Diagnostics: map[string]metricValue{},
	}
}

func summarise(unit string, values []float64, n int) metricValue {
	q1, med, q3 := stat.Quartiles(values)
	return metricValue{Value: med, Unit: unit, Stat: "median", Median: med, Q1: q1, Q3: q3, Samples: len(values), N: n}
}

// best reports the best round instead of the median one: the quickest
// set-up or cycle, the lowest latency percentile, the highest throughput.
// Every round is the same work, and on a shared host whatever else runs can
// only add to a round's time, never take from it, so the best round is the
// one nearest to what the program itself costs. Between ten runs on a busy
// stretch query_heavy's median cycle spread by 15-22% and the best cycle of
// the same runs by 3% (README.md, Steadiness). What the best round hides — a
// stall that hits some rounds and spares others — stays visible in the median
// and quartiles next to it.
func best(unit, better string, values []float64, n int) metricValue {
	mv := summarise(unit, values, n)
	if len(values) > 0 {
		mv.Stat, mv.Value = "best", slices.Min(values)
		if better == higher {
			mv.Value = slices.Max(values)
		}
	}
	return mv
}

func (res *workloadResult) setMetric(name, unit string, values []float64, n int) {
	res.Metrics[name] = summarise(unit, values, n)
}

func (res *workloadResult) setDiag(name, unit string, values []float64, n int) {
	if len(values) > 0 {
		res.Diagnostics[name] = summarise(unit, values, n)
	}
}

func (res *workloadResult) fail(msg string) {
	res.Correct = false
	if len(res.Failures) < 20 {
		res.Failures = append(res.Failures, msg)
	}
}

func (res *workloadResult) note(msg string) { res.Findings = append(res.Findings, msg) }

func (res *workloadResult) addPhase(name string, samples []sample) {
	pc := phaseCount{Phase: name, Sent: len(samples)}
	for _, s := range samples {
		if s.err != nil {
			pc.Failed++
			if pc.Failed == 1 {
				res.note(fmt.Sprintf("%s: first failure: %v", name, s.err))
			}
		}
	}
	pc.Succeeded = pc.Sent - pc.Failed
	res.Phases = append(res.Phases, pc)
}

// finish derives the counts and error_rate and decides correctness: any
// failed request or verification makes the run incorrect. A metric without a
// single sample behind it (NaN: every request of its kind failed) becomes 0
// with a finding, because JSON cannot carry it.
func (res *workloadResult) finish() {
	for _, m := range []map[string]metricValue{res.Metrics, res.Diagnostics} {
		for name, mv := range m {
			if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || math.IsNaN(mv.Q1) || math.IsNaN(mv.Q3) {
				res.note(fmt.Sprintf("%s has no finite value (%v): reported as 0", name, mv.Value))
				mv.Value, mv.Median, mv.Q1, mv.Q3 = 0, 0, 0, 0
				m[name] = mv
			}
		}
	}
	for _, pc := range res.Phases {
		res.Attempted += pc.Sent
		res.Failed += pc.Failed
	}
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	res.Metrics["error_rate"] = metricValue{Value: rate, Unit: "ratio", Samples: 1, N: res.Attempted}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
}

// print writes the human-readable report of one workload.
func (res *workloadResult) print(w io.Writer, specs []spec) {
	fmt.Fprintf(w, "\n== %s (seed %d, %.0f s measured) correct=%v\n", res.Workload, res.Seed, res.Seconds, res.Correct)
	for _, pc := range res.Phases {
		fmt.Fprintf(w, "   phase %-12s sent %6d  succeeded %6d  failed %d\n", pc.Phase, pc.Sent, pc.Succeeded, pc.Failed)
	}
	fmt.Fprintf(w, "   %-28s %12s %-6s %-6s %12s %12s %12s %7s %8s\n", "metric", "value", "unit", "stat", "median", "q1", "q3", "rounds", "n")
	for _, sp := range specs {
		if mv, ok := res.Metrics[sp.Name]; ok {
			fmt.Fprintf(w, "   %-28s %12.4f %-6s %-6s %12.4f %12.4f %12.4f %7d %8d\n", sp.Name, mv.Value, mv.Unit, mv.Stat, mv.Median, mv.Q1, mv.Q3, mv.Samples, mv.N)
		}
	}
	for _, name := range sortedKeys(res.Diagnostics) {
		mv := res.Diagnostics[name]
		fmt.Fprintf(w, "   diag %-33s %12.4f %-6s\n", name, mv.Value, mv.Unit)
	}
	if res.AnswersSHA256 != "" {
		fmt.Fprintf(w, "   answers_sha256 %s\n", res.AnswersSHA256)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(w, "   finding: %s\n", f)
	}
}

// driverLine is the last line of standard output in single-workload mode:
// the object the driver parses.
func (res *workloadResult) driverLine(specs []spec) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for _, sp := range specs {
		m, ok := res.Metrics[sp.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, sp.Name)
		}
		if m.Unit != sp.Unit {
			return "", fmt.Errorf("%s: metric %s has unit %s, declared %s", res.Workload, sp.Name, m.Unit, sp.Unit)
		}
		out.Metrics[sp.Name] = mv{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// fingerprint identifies the machine and build a result file came from.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"server_gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Fsync      string `json:"fsync_policy"`
}

func takeFingerprint(e *env) fingerprint {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: 2, GoVersion: runtime.Version(), Fsync: "interval (100ms), 250ms quiesce before SIGKILL"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if b, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	} else {
		fp.Commit = "unknown"
	}
	return fp
}

// settings records the fixed settings next to the numbers they produced.
type settings struct {
	Scale        scale   `json:"scale"`
	Length       int     `json:"series_length"`
	Sigma        float64 `json:"sigma"`
	K            int     `json:"k"`
	Tau          float64 `json:"tau"`
	IngestBatch  int     `json:"ingest_batch"`
	Connections  int     `json:"connections"`
	Rounds       int     `json:"rounds"`
	SamplesPerTS int     `json:"samples_per_timestamp"`
	ServerFlags  string  `json:"server_flags"`
}

func theSettings(sc scale) settings {
	return settings{
		Scale: sc, Length: gen.Length, Sigma: gen.Sigma, K: gen.K, Tau: gen.Tau, IngestBatch: gen.IngestBatch,
		Connections: connections, Rounds: rounds, SamplesPerTS: samplesPerTimestamp,
		ServerFlags: "GOMAXPROCS=2 uncertserve -dataset \"\" -length 128 -sigma 0.25 (default -workers 1)",
	}
}

// resultFile is what a run writes: every workload result of every set, and
// for -sets the agreement between the sets.
type resultFile struct {
	Claim       any              `json:"claim"` // this harness claims no gain
	Fingerprint fingerprint      `json:"fingerprint"`
	Settings    settings         `json:"settings"`
	Specs       []spec           `json:"end_to_end"`
	Results     []workloadResult `json:"results"`
	Agreement   []agreementRow   `json:"agreement,omitempty"`
}

func (rf *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// medians collects, per workload and metric, the metric's value in every
// result of the file (one per set), in file order.
func (rf *resultFile) medians() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rf.Results {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
