// Command uncertbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	uncertbench -exp fig5 -scale medium -seed 42
//	uncertbench -exp all -scale small
//	uncertbench -list
//
// Each experiment prints one or more tables whose rows mirror the series
// plotted in the corresponding figure of the paper; -out also writes every
// table as a TSV file. Timing the serving stack is the repository
// benchmark's job: `go run -C bench . --workload W`, with --trace 1 for the
// per-layer numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"uncertts/internal/experiments"
)

// run is main with its environment injected, so tests can drive the
// command end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("uncertbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment to run (fig4..fig17, chisquare, topk, classify, or 'all')")
		scale  = fs.String("scale", "small", "workload scale: small, medium or full")
		seed   = fs.Int64("seed", 42, "random seed; equal seeds reproduce identical tables")
		list   = fs.Bool("list", false, "list available experiments and exit")
		outDir = fs.String("out", "", "also write each table as a TSV file into this directory")
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
