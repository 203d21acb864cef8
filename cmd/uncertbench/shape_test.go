package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// jsonKeys marshals v and returns the sorted key set of the resulting
// object, so a struct's wire shape can be pinned independently of its
// Go field names.
func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestReportWireShapes pins the exact JSON key set of every -json report
// type. A renamed or dropped json tag fails here immediately, instead of
// silently producing BENCH_*.json files that no longer line up with the
// checked-in baselines.
func TestReportWireShapes(t *testing.T) {
	want := map[string]struct {
		value any
		keys  []string
	}{
		"BenchResult": {BenchResult{}, []string{
			"abandoned_early", "candidates", "completed", "length", "measure",
			"ns_per_op", "pruned_by_envelope", "pruned_fraction", "queries",
			"resolved_by_bounds", "resolved_early", "series",
		}},
		"StoreBenchResult": {StoreBenchResult{}, []string{
			"checkpoint_load_ns_per_series", "ingest_ns_per_series", "length",
			"replay_ns_per_series", "samples", "series", "wal_bytes_per_series",
		}},
		"BenchReport": {BenchReport{}, []string{"measures", "store"}},
		"ScanMeasureResult": {ScanMeasureResult{}, []string{
			"abandoned_early", "buckets_pruned", "buckets_visited",
			"candidates", "completed", "index_skipped_fraction",
			"indexed_ns_per_op", "kind", "matches", "measure", "ns_per_op",
			"pruned_by_envelope", "pruned_fraction", "resolved_by_bounds",
			"resolved_early", "series_skipped_by_index",
		}},
		"ScanLayoutResult": {ScanLayoutResult{}, []string{
			"arena_ns_per_scan", "kernel", "scattered_ns_per_scan",
			"scattered_over_arena",
		}},
		"ObsBenchResult": {ObsBenchResult{}, []string{
			"measure", "obs_ns_per_op", "obs_over_plain", "plain_ns_per_op",
		}},
		"ScanBenchReport": {ScanBenchReport{}, []string{
			"build_ns", "calibrate_ns", "eps", "index_build_ns", "layout",
			"length", "measures", "obs", "queries", "samples", "seed",
			"series", "tau", "workers",
		}},
		"ClusterMeasureResult": {ClusterMeasureResult{}, []string{
			"cluster_ns_per_op", "completed_single",
			"completed_with_propagation", "completed_without_propagation",
			"measure", "merge_overhead", "no_prop_ns_per_op",
			"propagation_saved_fraction", "single_ns_per_op",
		}},
		"ClusterBenchReport": {ClusterBenchReport{}, []string{
			"build_ns", "k", "length", "measures", "queries", "samples",
			"seed", "series", "shards", "workers",
		}},
	}
	for name, tc := range want {
		if got := jsonKeys(t, tc.value); !reflect.DeepEqual(got, tc.keys) {
			t.Errorf("%s wire shape drifted:\n got %v\nwant %v", name, got, tc.keys)
		}
	}
}

// legacyBenchResult is BenchResult as BENCH_PR4 and BENCH_PR5 recorded it:
// with the direct-versus-Run timing pair of the wrapper gate PR 14 retired.
// Nothing emits the two keys any more; they stay decodable here so the old
// baselines need no edit.
type legacyBenchResult struct {
	BenchResult
	DirectNsPerOp int64 `json:"direct_ns_per_op"`
	RunNsPerOp    int64 `json:"run_ns_per_op"`
}

// legacyBenchReport is BenchReport over legacyBenchResult records.
type legacyBenchReport struct {
	Measures []legacyBenchResult `json:"measures"`
	Store    StoreBenchResult    `json:"store"`
}

// PairedBenchReport is the shape of a BENCH_PR<N>.json that records a claim
// judged with the repository benchmark (bench/, a module of its own that no
// tool here drives): parent commit against change, as interleaved pairs of
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
// BENCH_PR*.json at the repository root against the report types above.
// Exactly one document shape must accept each file (older baselines are
// bare []BenchResult arrays from before the store record existed; fields
// added since are simply absent there). If a report struct is reshaped
// without migrating or versioning the baselines, this fails.
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
		var matched []string

		var legacy []legacyBenchResult
		if strictDecode(data, &legacy) == nil {
			matched = append(matched, "[]BenchResult")
			if len(legacy) == 0 {
				t.Errorf("%s: empty measure list", name)
			}
			for _, r := range legacy {
				if r.Measure == "" || r.NsPerOp <= 0 {
					t.Errorf("%s: implausible measure record %+v", name, r)
				}
			}
		}
		var engine legacyBenchReport
		if strictDecode(data, &engine) == nil {
			matched = append(matched, "BenchReport")
			if len(engine.Measures) == 0 || engine.Store.IngestNsPerSeries <= 0 {
				t.Errorf("%s: implausible engine report", name)
			}
		}
		var scan ScanBenchReport
		if strictDecode(data, &scan) == nil {
			matched = append(matched, "ScanBenchReport")
			if len(scan.Measures) == 0 || len(scan.Layout) == 0 {
				t.Errorf("%s: implausible scan report", name)
			}
		}
		var clus ClusterBenchReport
		if strictDecode(data, &clus) == nil {
			matched = append(matched, "ClusterBenchReport")
			if len(clus.Measures) == 0 || clus.Shards < 2 {
				t.Errorf("%s: implausible cluster report", name)
			}
			for _, r := range clus.Measures {
				if r.CompletedWithProp >= r.CompletedWithoutProp {
					t.Errorf("%s: %s records no propagation gain (%d with vs %d without)",
						name, r.Measure, r.CompletedWithProp, r.CompletedWithoutProp)
				}
			}
		}

		var paired PairedBenchReport
		if strictDecode(data, &paired) == nil {
			matched = append(matched, "PairedBenchReport")
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

		if len(matched) != 1 {
			t.Errorf("%s: matched document shapes %v, want exactly one", name, matched)
		}
	}
}
