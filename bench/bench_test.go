package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uncertts/bench/gen"
)

func fakeQueries(n int) []gen.Query {
	op := &gen.Op{Name: "fake"}
	qs := make([]gen.Query, n)
	for i := range qs {
		qs[i] = gen.Query{Op: op, ID: i}
	}
	return qs
}

// A server that stalls must show the stall in every latency it delays,
// because latency runs from the due time, and the generator must say how
// late it sent.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const (
		rate  = 200
		stall = 200 * time.Millisecond
	)
	dur := 500 * time.Millisecond
	var calls atomic.Int64
	send := func(gen.Query) error {
		// Both connections stall at the same moment, early in the phase:
		// nothing can be sent for `stall`, and requests pile up behind it.
		if n := calls.Add(1); n == 11 || n == 12 {
			time.Sleep(stall)
		}
		return nil
	}
	or := openLoop(send, fakeQueries(rate*int(dur/time.Millisecond)/1000), rate, dur)
	if len(or.samples) != 100 || or.unsent != 0 {
		t.Fatalf("sent %d, unsent %d, want 100 and 0", len(or.samples), or.unsent)
	}
	interval := time.Second / rate
	delayed, maxLate := 0, time.Duration(0)
	for i, s := range or.samples {
		if s.lat > stall/2 {
			delayed++
		}
		maxLate = max(maxLate, or.lateness[i])
	}
	// The two stalled requests, and those that came due during the stall
	// (stall / interval = 40 of them), all waited; measured from send time
	// only two would show it.
	if delayed < int(stall/interval)/2 {
		t.Errorf("%d latencies show the stall, want about %d: latency is not measured from the due time", delayed, int(stall/interval))
	}
	if maxLate < stall/2 {
		t.Errorf("largest reported lateness %v, want about %v: the generator did not report how late it ran", maxLate, stall)
	}
	if last := or.samples[len(or.samples)-1]; last.lat > stall/2 {
		t.Errorf("the backlog never drained: last latency %v", last.lat)
	}
}

func TestOpenLoopStopsAtTheCutOff(t *testing.T) {
	send := func(gen.Query) error { time.Sleep(20 * time.Millisecond); return nil }
	// 100/s offered, about 100/s served by two connections at 20 ms each
	// would keep up; 400/s cannot: dispatching stops at 1.5 x dur.
	or := openLoop(send, fakeQueries(200), 400, 500*time.Millisecond)
	if or.unsent == 0 || len(or.samples)+or.unsent != 200 {
		t.Fatalf("sent %d, unsent %d of 200: want some unsent and none lost", len(or.samples), or.unsent)
	}
	if or.backlogLate <= or.backlogEarly+1 {
		t.Errorf("backlog early %.1f, late %.1f: an overloaded rate must show a growing backlog", or.backlogEarly, or.backlogLate)
	}
}

func TestCyclesOfKeepsCompleteCyclesOnly(t *testing.T) {
	ms := time.Millisecond
	samples := []sample{
		{reader: 0, cycle: 0, at: 10 * ms}, {reader: 1, cycle: 0, at: 12 * ms},
		{reader: 0, cycle: 0, at: 20 * ms}, {reader: 1, cycle: 0, at: 30 * ms},
		{reader: 0, cycle: 1, at: 35 * ms}, {reader: 0, cycle: 1, at: 50 * ms},
		{reader: 0, cycle: 2, at: 55 * ms}, // reader 0 started cycle 2: cycle 1 is complete
		{reader: 1, cycle: 1, at: 60 * ms}, // reader 1 started cycle 1: its cycle 0 is complete
	}
	cycles, durations := cyclesOf(samples, 2)
	if len(cycles) != 3 {
		t.Fatalf("%d complete cycles, want 3", len(cycles))
	}
	want := []time.Duration{20 * ms, 30 * ms, 30 * ms} // reader 0: 0-20, 20-50; reader 1: 0-30
	if !slices.Equal(durations, want) {
		t.Errorf("durations %v, want %v", durations, want)
	}
	for i, c := range cycles {
		if len(c) != 2 {
			t.Errorf("cycle %d has %d samples, want 2", i, len(c))
		}
	}
}

func TestVerdicts(t *testing.T) {
	lat := spec{Name: "query_p50_ms", Better: lower, Bound: 0.10}
	qps := spec{Name: "throughput_qps", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		sp           spec
		o, n, spread float64
		want         string
	}{
		{lat, 10, 11.5, 0.02, "worse"},
		{lat, 10, 10.5, 0.02, "same"},
		{lat, 10, 9, 0.02, "better"},
		{lat, 10, 11.5, 0.20, "unresolved"}, // moved less than the spread, and the spread hides the bound
		{lat, 10, 14, 0.20, "worse"},        // beyond both
		{qps, 100, 85, 0.02, "worse"},
		{qps, 100, 120, 0.02, "better"},
		{spec{Name: "error_rate", Better: lower}, 0, 0.001, 0, "worse"}, // absolute: any rise
		{spec{Name: "error_rate", Better: lower}, 0, 0, 0, "same"},
	} {
		if got := verdictOf(c.sp, c.o, c.n, c.spread); got != c.want {
			t.Errorf("%s %v -> %v (spread %v): %s, want %s", c.sp.Name, c.o, c.n, c.spread, got, c.want)
		}
	}
}

func resultWith(workload string, metrics map[string]float64) workloadResult {
	r := workloadResult{Workload: workload, Correct: true, Metrics: map[string]metricValue{}}
	for k, v := range metrics {
		r.Metrics[k] = metricValue{Value: v}
	}
	return r
}

func TestCompareFlagsWorseAndAgreementFlagsDisagreement(t *testing.T) {
	specs := endToEnd()
	base := map[string]float64{"throughput_qps": 100, "query_p50_ms": 10, "error_rate": 0}
	slow := map[string]float64{"throughput_qps": 70, "query_p50_ms": 10.2, "error_rate": 0}
	oldRF := &resultFile{Specs: specs, Results: []workloadResult{resultWith("query_light", base)}}
	newRF := &resultFile{Specs: specs, Results: []workloadResult{resultWith("query_light", slow)}}
	var out bytes.Buffer
	if !compare(&out, oldRF, newRF) {
		t.Errorf("a 30%% throughput loss was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0.700 (100)") {
		t.Errorf("the ratio is not printed with its base:\n%s", out.String())
	}
	if compare(&out, oldRF, oldRF) {
		t.Error("a file compared with itself is worse")
	}
	two := &resultFile{Specs: specs, Results: []workloadResult{resultWith("query_light", base), resultWith("query_light", slow)}}
	rows, ok := agreement(two)
	if ok || len(rows) == 0 {
		t.Errorf("sets 30%% apart agree: %+v", rows)
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go and run.go are
// what the harness emits. They must say the same.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	e, err := locateEnv()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []spec `json:"end_to_end"`
		PerLayer   []spec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	listed := slices.DeleteFunc(slices.Clone(workloads), func(w workload) bool { return !w.Driver })
	if len(bj.Workloads) != len(listed) {
		t.Fatalf("%d workloads listed, the harness marks %d for the driver", len(bj.Workloads), len(listed))
	}
	for i, w := range listed {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the harness %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, listed, emitted []spec, bounds bool) {
		if len(listed) != len(emitted) {
			t.Errorf("%s: %d metrics listed, the harness emits %d", kind, len(listed), len(emitted))
			return
		}
		for i, want := range emitted {
			got := listed[i]
			if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || (bounds && got.Bound != want.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got, want)
			}
			if bounds && (want.Bound <= 0 || want.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", want.Name, want.Bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, driverEndToEnd(), true)
	same("per_layer", bj.PerLayer, perLayer(), false)
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(bj.PerLayer))
	}
	if !slices.ContainsFunc(bj.EndToEnd, func(s spec) bool { return s.Name == "setup_s" && s.Unit == "s" && s.Better == lower }) {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d but -seconds defaults to %v", bj.RunSeconds, defaultSeconds)
	}
}

// The smoke scale runs all four workloads end to end against real servers,
// the SIGKILL and recovery included, then one traced run.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and takes about half a minute")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout bytes.Buffer
	if code := run([]string{"-scale", "smoke", "-seconds", "2", "-out", out}, &stdout); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Results) != len(workloads) {
		t.Fatalf("%d results, want %d", len(rf.Results), len(workloads))
	}
	hashes := map[string]string{}
	for _, r := range rf.Results {
		hashes[r.Workload] = r.AnswersSHA256
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Failures)
		}
		for _, sp := range rf.Specs {
			if _, ok := r.Metrics[sp.Name]; sp.on(r.Workload) && !ok {
				t.Errorf("%s: metric %s missing", r.Workload, sp.Name)
			}
		}
	}
	if hashes["query_light"] == "" || hashes["query_light"] != hashes["sharded"] {
		t.Errorf("answers of query_light %q and sharded %q differ", hashes["query_light"], hashes["sharded"])
	}
	if hashes["query_light"] == hashes["mixed_durable"] {
		t.Error("mixed_durable's answers hash equals query_light's although its verify set differs")
	}
	entries, err := os.ReadDir(filepath.Join(mustEnv(t).buildDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("temp dir %s left behind", e.Name())
		}
	}

	// One traced run: every per-layer metric, and the driver's line.
	stdout.Reset()
	if code := run([]string{"-scale", "smoke", "-seconds", "3", "-workload", "sharded", "-trace", "1", "-out", filepath.Join(dir, "trace.json")}, &stdout); code != 0 {
		t.Fatalf("traced run: exit code %d\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the driver's object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("traced run: %+v", line)
	}
	for _, sp := range perLayer() {
		if m, ok := line.Metrics[sp.Name]; !ok || m.Unit != sp.Unit {
			t.Errorf("per-layer metric %s: got %+v, present=%v", sp.Name, m, ok)
		}
	}
	if len(line.Metrics) != len(perLayer()) {
		t.Errorf("%d metrics on the line, want %d", len(line.Metrics), len(perLayer()))
	}
	if _, err := os.Stat(filepath.Join(mustEnv(t).benchDir, "out", "trace-sharded.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}
}

func mustEnv(t *testing.T) *env {
	t.Helper()
	e, err := locateEnv()
	if err != nil {
		t.Fatal(err)
	}
	return e
}
