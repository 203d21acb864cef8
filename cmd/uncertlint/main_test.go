package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uncertts/internal/lint/driver"
	"uncertts/internal/lint/load"
	"uncertts/internal/lint/uncertlint"
)

// repoRoot resolves the module root (this package lives at cmd/uncertlint).
func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestRepositoryIsClean is the smoke test the acceptance bar asks for: the
// full analyzer suite over the entire repository must produce zero
// diagnostics. Any invariant violation introduced by a future PR fails
// here (and in the dedicated CI steps) with the exact file:line. The
// standalone loader sees production sources only, so the suite then runs
// again as go vet's tool, which hands it every test file too (a stale
// //lint:allow in a test is visible only there).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repository-wide analysis in the full suite only")
	}
	root := repoRoot(t)
	loader := load.NewLoader(root)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern ./... no longer covers the tree", len(pkgs))
	}
	diags, err := driver.Run(pkgs, uncertlint.Analyzers())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		rel, rerr := filepath.Rel(root, d.Pos.Filename)
		if rerr != nil {
			rel = d.Pos.Filename
		}
		t.Errorf("%s:%d:%d: %s [%s]", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}

	bin := filepath.Join(t.TempDir(), "uncertlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=uncertlint ./...: %v\n%s", err, out)
	}
}

// TestSuiteIsComplete pins the analyzer roster so a refactor cannot
// silently drop an invariant from the suite.
func TestSuiteIsComplete(t *testing.T) {
	want := []string{"arenawrite", "ctxpoll", "floatcmp", "intoalloc", "metricname", "sentinelcmp"}
	got := uncertlint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc or Run", a.Name)
		}
	}
}
