package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown experiment":        {"-exp", "fig99"},
		"unknown scale":             {"-scale", "huge"},
		"json without bench":        {"-json"},
		"bad tau":                   {"-bench", "-tau", "1.5"},
		"unknown flag":              {"-nope"},
		"replay-max without bench":  {"-replay-max", "2"},
		"negative replay-max":       {"-bench", "-replay-max", "-1"},
		"series without bench":      {"-series", "100"},
		"length without bench":      {"-length", "64"},
		"scan-max-ns without bench": {"-scan-max-ns", "100"},
		"cpuprofile without bench":  {"-cpuprofile", "cpu.out"},
		"large without bench":       {"-scale", "large"},
		"replay-max on scan bench":  {"-bench", "-series", "100", "-replay-max", "2"},
		"unknown measure":           {"-bench", "-series", "100", "-measures", "nope"},
		"munich without samples":    {"-bench", "-series", "100", "-measures", "munich", "-samples", "0"},
		"too few series":            {"-bench", "-series", "10", "-queries", "8"},
		"zero queries":              {"-bench", "-series", "100", "-queries", "0"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s (%v): expected an error", name, args)
		}
	}
}

func TestListExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig5") {
		t.Errorf("-list output missing fig5:\n%s", out.String())
	}
}

// TestEndToEndExperiment runs one real figure regeneration at the small
// scale and checks a table came out.
func TestEndToEndExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "chisquare", "-scale", "small", "-seed", "7"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chisquare") {
		t.Errorf("experiment output missing its table:\n%s", out.String())
	}
}

// TestBenchJSON runs the engine benchmark at the small scale and checks
// the machine-readable output: all seven measures, positive timings, the
// stats accounting identity, and the store throughput record.
func TestBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-bench", "-scale", "small", "-seed", "7", "-json"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("bench output is not JSON: %v\n%s", err, out.String())
	}
	results := report.Measures
	if len(results) != 7 {
		t.Fatalf("got %d measures, want 7", len(results))
	}
	st := report.Store
	if st.IngestNsPerSeries <= 0 || st.ReplayNsPerSeries <= 0 || st.CheckpointLoadNsPerSeries <= 0 || st.WALBytesPerSeries <= 0 {
		t.Errorf("implausible store bench record %+v", st)
	}
	if st.Series != results[0].Series || st.Length != results[0].Length {
		t.Errorf("store bench shape %dx%d does not match the measure shape %dx%d",
			st.Series, st.Length, results[0].Series, results[0].Length)
	}
	seen := map[string]bool{}
	for _, r := range results {
		seen[r.Measure] = true
		if r.NsPerOp <= 0 || r.Queries <= 0 || r.Candidates <= 0 {
			t.Errorf("%s: implausible result %+v", r.Measure, r)
		}
		if sum := r.Completed + r.AbandonedEarly + r.PrunedByEnvelope + r.ResolvedByBounds + r.ResolvedEarly; sum != r.Candidates {
			t.Errorf("%s: accounting identity broken: %+v", r.Measure, r)
		}
	}
	for _, m := range []string{"Euclidean", "UMA", "UEMA", "DTW", "DUST", "PROUD", "MUNICH"} {
		if !seen[m] {
			t.Errorf("measure %s missing from bench output", m)
		}
	}
}

// TestScanBenchJSON drives the production-scale bench path at a toy shape
// and validates its machine-readable report: all seven measures, the
// accounting identity, and the Euclidean/DTW layout A/B records.
func TestScanBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-bench", "-series", "600", "-length", "48", "-queries", "3", "-seed", "7", "-json"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var report ScanBenchReport
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("scan bench output is not JSON: %v\n%s", err, out.String())
	}
	if report.Series != 600 || report.Length != 48 || report.Queries != 3 {
		t.Fatalf("report shape %+v does not echo the flags", report)
	}
	if report.Eps <= 0 || report.BuildNs <= 0 || report.CalibrateNs <= 0 {
		t.Errorf("implausible report header %+v", report)
	}
	if len(report.Measures) != 7 {
		t.Fatalf("got %d measures, want 7", len(report.Measures))
	}
	for _, r := range report.Measures {
		if r.NsPerOp <= 0 || r.Candidates <= 0 {
			t.Errorf("%s: implausible result %+v", r.Measure, r)
		}
		if sum := r.Completed + r.AbandonedEarly + r.PrunedByEnvelope + r.ResolvedByBounds + r.ResolvedEarly; sum != r.Candidates {
			t.Errorf("%s: accounting identity broken: %+v", r.Measure, r)
		}
	}
	kernels := map[string]bool{}
	for _, l := range report.Layout {
		kernels[l.Kernel] = true
		if l.ArenaNsPerScan <= 0 || l.ScatteredNsPerScan <= 0 || l.ScatteredOverArena <= 0 {
			t.Errorf("layout %s: implausible record %+v", l.Kernel, l)
		}
	}
	if !kernels["euclidean"] || !kernels["dtw"] {
		t.Errorf("layout records missing a kernel: %v", kernels)
	}
}

// TestScanBenchGate proves -scan-max-ns fails the run on regression.
func TestScanBenchGate(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run in -short mode")
	}
	err := run([]string{"-bench", "-series", "300", "-length", "32", "-queries", "2",
		"-measures", "euclidean", "-scan-max-ns", "1"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "scan regression") {
		t.Fatalf("expected a scan regression error, got %v", err)
	}
}

// TestCheckPrefilters pins the prefilter gate: an engaged arm fails when it
// skips nothing or loses to its own scan arm by more than the noise floor;
// measures without an engaged prefilter and differences inside the floor
// pass.
func TestCheckPrefilters(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    ScanMeasureResult
		want string
	}{
		{"faster", ScanMeasureResult{NsPerOp: 1_000_000, IndexedNsPerOp: 300_000, SeriesSkippedByIndex: 7000}, ""},
		{"not engaged", ScanMeasureResult{NsPerOp: 1_000_000}, ""},
		{"inside the noise floor", ScanMeasureResult{NsPerOp: 30_000, IndexedNsPerOp: 45_000, SeriesSkippedByIndex: 10}, ""},
		{"slower", ScanMeasureResult{NsPerOp: 1_000_000, IndexedNsPerOp: 2_000_000, SeriesSkippedByIndex: 7000}, "2.00x its own scan arm"},
		{"dead", ScanMeasureResult{NsPerOp: 1_000_000, IndexedNsPerOp: 900_000}, "skipped no series"},
	} {
		err := checkPrefilters([]ScanMeasureResult{tc.r})
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
