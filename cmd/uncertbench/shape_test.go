package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// PairedBenchReport is the shape of every BENCH_PR<N>.json: a change judged
// with the repository benchmark (bench/, a module of its own that no tool
// here drives), parent commit against change, as interleaved pairs of
// `go run -C bench . --workload W`. It lives test-side because nothing in
// uncertbench emits it; the file is assembled from the harness's outputs. A
// change that claims no gain records "claim": null and is held to the
// within-bound verdicts of its workloads alone.
type PairedBenchReport struct {
	Issue     string           `json:"issue"`
	Parent    string           `json:"parent"`
	Change    string           `json:"change"`
	Command   string           `json:"command"`
	Method    string           `json:"method"`
	Claim     *PairedClaim     `json:"claim"`
	Workloads []PairedWorkload `json:"workloads"`
	Compare   []string         `json:"compare"`
	Trace     []PairedTraceRow `json:"trace"`
	Notes     []string         `json:"notes"`
}

// PairedClaim is the one gain the change claims, judged by the rule of the
// choosing-metrics guide: the change wins at least nine tenths of the pairs
// and the medians differ by more than the parent's interquartile range.
type PairedClaim struct {
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Better       string  `json:"better"`
	Pairs        int     `json:"pairs"`
	ChangeWins   int     `json:"change_wins"`
	ParentMedian float64 `json:"parent_median"`
	ChangeMedian float64 `json:"change_median"`
	ParentIQR    float64 `json:"parent_iqr"`
	Ratio        float64 `json:"ratio"`
	HoldOutSeed  int64   `json:"hold_out_seed"`
	HoldOutRatio float64 `json:"hold_out_ratio"`
	Met          bool    `json:"met"`
}

// PairedWorkload holds every run of one workload and the per-metric summary.
type PairedWorkload struct {
	Name    string         `json:"name"`
	Pairs   []PairedRun    `json:"pairs"`
	Metrics []PairedMetric `json:"metrics"`
}

// PairedRun is one parent/change pair; First names the side that ran first.
type PairedRun struct {
	Seed    int64      `json:"seed"`
	First   string     `json:"first"`
	HoldOut bool       `json:"hold_out"`
	Parent  PairedSide `json:"parent"`
	Change  PairedSide `json:"change"`
}

// PairedSide is the driver object one run printed (its last stdout line).
type PairedSide struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// PairedMetric summarises one end-to-end metric over a workload's pairs.
type PairedMetric struct {
	Name       string     `json:"name"`
	Unit       string     `json:"unit"`
	Better     string     `json:"better"`
	Bound      float64    `json:"bound"`
	Parent     [3]float64 `json:"parent_q1_median_q3"`
	Change     [3]float64 `json:"change_q1_median_q3"`
	Ratio      float64    `json:"ratio"`
	ChangeWins int        `json:"change_wins"`
	ParentWins int        `json:"parent_wins"`
	Verdict    string     `json:"verdict"`
}

// PairedTraceRow is one per-layer metric of the `--trace 1` pair.
type PairedTraceRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Parent   float64 `json:"parent"`
	Change   float64 `json:"change"`
}

// strictDecode decodes data into v rejecting unknown fields, and requires
// the document to contain exactly one JSON value.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after document")
	}
	return nil
}

// TestBaselineArtifactsMatchShape strict-decodes every checked-in
// BENCH_PR*.json at the repository root as a PairedBenchReport and holds it
// to its own verdicts: a claim needs ten pairs and, to count as met, wins in
// nine of ten; without one, every workload needs the full ten pairs; no run
// may fail verification or fail more requests at the change than at the
// parent. A renamed or added key fails here instead of drifting silently.
func TestBaselineArtifactsMatchShape(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_PR*.json baselines found at the repository root")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		var paired PairedBenchReport
		if err := strictDecode(data, &paired); err != nil {
			t.Errorf("%s: not a paired report: %v", name, err)
			continue
		}
		if len(paired.Workloads) == 0 {
			t.Errorf("%s: paired report without workloads", name)
		}
		if c := paired.Claim; c != nil {
			if c.Pairs < 10 {
				t.Errorf("%s: a claim judged on %d pairs, want at least 10", name, c.Pairs)
			}
			if c.Met && 10*c.ChangeWins < 9*c.Pairs {
				t.Errorf("%s: claim recorded as met with %d wins of %d pairs", name, c.ChangeWins, c.Pairs)
			}
		}
		for _, w := range paired.Workloads {
			// Without a claim the must-not-move verdicts are all the
			// report says, so each one needs the full ten pairs.
			if n := len(w.Pairs); paired.Claim == nil && n < 10 {
				t.Errorf("%s: %s has %d pairs, want at least 10", name, w.Name, n)
			}
			for _, r := range w.Pairs {
				if !r.Parent.Correct || !r.Change.Correct || r.Change.Failed > r.Parent.Failed {
					t.Errorf("%s: %s seed %d: a run failed verification or the change failed more requests", name, w.Name, r.Seed)
				}
			}
		}
	}
}
