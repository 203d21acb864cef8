package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// buildDirName is where binaries, data directories and temp files of a run
// live: inside the checkout, named in .gitignore.
const buildDirName = ".bench_build"

// env is the checkout a run works in.
type env struct {
	root      string // holds the go.mod of module uncertts
	benchDir  string // root/bench
	buildDir  string // root/.bench_build
	serverBin string
	probeBin  string
}

// locateEnv finds the checkout: `go run -C bench .` and `go test` both start
// in bench/, whose parent must hold the go.mod of module uncertts. Nothing
// further up is considered, so a copy of bench/ alone never picks up some
// other checkout.
func locateEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := filepath.Dir(dir)
	if moduleOf(filepath.Join(dir, "go.mod")) != "uncertts/bench" || moduleOf(filepath.Join(root, "go.mod")) != "uncertts" {
		return nil, errors.New("run from bench/ inside a checkout (go run -C bench .): the benchmark builds uncertserve from the go.mod of module uncertts one directory up, and there is none")
	}
	build := filepath.Join(root, buildDirName)
	return &env{
		root:      root,
		benchDir:  dir,
		buildDir:  build,
		serverBin: filepath.Join(build, "uncertserve"),
		probeBin:  filepath.Join(build, "layerprobe"),
	}, nil
}

func moduleOf(gomod string) string {
	f, err := os.Open(gomod)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(name)
		}
	}
	return ""
}

// goBuild compiles one main package from source. The go tool's own cache
// makes a rebuild of unchanged code a sub-second no-op, so every run builds
// and a stale binary cannot be measured.
func goBuild(dir, pkg, out string) error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", pkg, err, msg)
	}
	logf("built %s in %.1fs", filepath.Base(out), time.Since(start).Seconds())
	return nil
}

func (e *env) buildServer() error { return goBuild(e.root, "./cmd/uncertserve", e.serverBin) }
func (e *env) buildProbe() error  { return goBuild(e.benchDir, "./layerprobe", e.probeBin) }

// logf writes progress to standard error; standard output carries results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
