// Command bench is the repository's benchmark: four HTTP workloads against a
// real uncertserve child process, built from the checkout the command runs
// in. See README.md for what each workload and metric is for.
//
//	go run -C bench .                                   every workload, human report + bench/out/result.json
//	go run -C bench . --workload query_light --seed 7 --seconds 25 --trace 0
//	                                                    one workload; the last line is the driver's JSON object
//	go run -C bench . --workload query_light --trace 1  per-layer metrics + bench/out/trace-query_light.json
//	go run -C bench . -sets 2                           every workload twice, asserting the sets agree
//	go run -C bench . -compare old.json new.json        one row per workload and metric, non-zero exit on any worse
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// defaultSeconds is run_seconds of BENCHMARK.json: a run without --seconds
// measures what the driver's runs measure.
const defaultSeconds = 25

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the whole command: results go to stdout, progress and errors to
// standard error, and the return value is the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run only this workload and print the driver's JSON object as the last line (default: all four)")
		seed         = fs.Int64("seed", 42, "seed of the traffic: the order of the query set, the verify set, the writer's series")
		seconds      = fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace        = fs.Int("trace", 0, "1 = traced run: per-layer metrics from the in-process layer probe")
		scaleName    = fs.String("scale", "default", "corpus sizes: default, smoke (end-to-end test) or full (the issue's sizes; slow)")
		sets         = fs.Int("sets", 1, "run every selected workload this many times, alternating order, and assert the sets agree within each metric's bound")
		cmp          = fs.Bool("compare", false, "compare two result files given as arguments: old.json new.json")
		out          = fs.String("out", "", "result file to write (default bench/out/result.json, or result-trace.json with --trace 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files: old.json new.json")
			return 2
		}
		oldRF, err := readResultFile(fs.Arg(0))
		if err == nil {
			var newRF *resultFile
			if newRF, err = readResultFile(fs.Arg(1)); err == nil {
				if compare(stdout, oldRF, newRF) {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	sc, ok := scales[*scaleName]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []workload{wl}
	}

	e, err := locateEnv()
	if err == nil {
		err = e.buildServer()
	}
	if err == nil && *trace == 1 {
		err = e.buildProbe()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trapSignals()
	defer cleanupAll()

	rc := runConfig{env: e, sc: sc, seed: *seed, seconds: *seconds}
	specs := endToEnd()
	if *trace == 1 {
		specs = perLayer()
	}
	rf := &resultFile{Fingerprint: takeFingerprint(e), Settings: theSettings(sc), Specs: specs}
	failed := false
	for set := range *sets {
		order := slices.Clone(selected)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, wl := range order {
			var res *workloadResult
			if *trace == 1 {
				res, err = rc.runTraced(wl)
			} else {
				res, err = rc.runWorkload(wl)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			res.Set = set
			res.print(stdout, specs)
			failed = failed || !res.Correct
			rf.Results = append(rf.Results, *res)
		}
	}
	if *trace == 0 && !hashesAgree(rf) {
		failed = true
	}
	if *sets > 1 {
		var agrees bool
		rf.Agreement, agrees = agreement(rf)
		printAgreement(stdout, rf.Agreement)
		failed = failed || !agrees
	}

	path := *out
	if path == "" && *trace == 1 {
		path = filepath.Join(rc.outDir(), "result-trace.json")
	} else if path == "" {
		path = filepath.Join(rc.outDir(), "result.json")
	}
	if err := rf.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	logf("wrote %s", path)

	if *workloadName != "" && *sets == 1 {
		driverSpecs := specs
		if *trace == 0 {
			driverSpecs = driverEndToEnd()
		}
		line, err := rf.Results[0].driverLine(driverSpecs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench: FAILED (see above)")
		return 1
	}
	return 0
}

// hashesAgree enforces the repository's promise of bit-identical cluster
// answers: query_light and sharded receive the same verify set, so whenever
// a set ran both, their answer hashes must be equal.
func hashesAgree(rf *resultFile) bool {
	ok := true
	light := map[int]string{}
	for _, r := range rf.Results {
		if r.Workload == "query_light" {
			light[r.Set] = r.AnswersSHA256
		}
	}
	for _, r := range rf.Results {
		if want, ran := light[r.Set]; ran && r.Workload == "sharded" && r.AnswersSHA256 != want {
			fmt.Fprintf(os.Stderr, "bench: set %d: sharded answers hash %s, query_light %s: cluster answers are not bit-identical\n", r.Set, r.AnswersSHA256, want)
			ok = false
		}
	}
	return ok
}
