package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown experiment": {"-exp", "fig99"},
		"unknown scale":      {"-scale", "huge"},
		"unknown flag":       {"-nope"},
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
// scale and checks a table came out, on stdout and as a TSV file.
func TestEndToEndExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	var out bytes.Buffer
	dir := t.TempDir()
	if err := run([]string{"-exp", "chisquare", "-scale", "small", "-seed", "7", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chisquare") {
		t.Errorf("experiment output missing its table:\n%s", out.String())
	}
	tsvs, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil || len(tsvs) == 0 {
		t.Fatalf("-out wrote no TSV file (%v)", err)
	}
	if data, err := os.ReadFile(tsvs[0]); err != nil || !strings.Contains(string(data), "\t") {
		t.Errorf("%s is not a tab-separated table (%v)", tsvs[0], err)
	}
}
