// Package analysistest runs one analyzer over a testdata package and
// checks its diagnostics against `// want "regex"` comments, in the style
// of golang.org/x/tools/go/analysis/analysistest. Diagnostics pass through
// the driver's //lint:allow filtering first, so testdata can also prove
// that suppression directives work: a seeded violation carrying a valid
// directive must have no want comment.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"uncertts/internal/lint/analysis"
	"uncertts/internal/lint/driver"
	"uncertts/internal/lint/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory (go test runs with the package directory as working
// directory).
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// wantRx matches one quoted expectation: "..." (Go-quoted) or `...`.
var wantRx = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<pkg>, applies the analyzer through the driver,
// and reports any mismatch between diagnostics and want comments as test
// failures. The package may import its siblings under testdata/src by their
// directory names, GOPATH-style.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("no testdata package: %v", err)
	}
	loader := load.NewLoader(dir)
	loader.Src = filepath.Join(testdata, "src")
	p, err := loader.LoadDir(dir, pkg)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := driver.Run([]*load.Package{p}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Collect expectations keyed by file:line.
	wants := map[string][]*expectation{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "// want ")
				if i < 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range wantRx.FindAllString(text[i+len("// want "):], -1) {
					pattern := q
					if q[0] == '"' {
						if pattern, err = strconv.Unquote(q); err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", key, q, err)
						}
					} else {
						pattern = q[1 : len(q)-1]
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", key, q, err)
					}
					wants[key] = append(wants[key], &expectation{rx: rx})
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.rx)
			}
		}
	}
}
