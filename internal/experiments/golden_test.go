package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure tables under testdata/")

// figMemo holds the testCfg tables of the figures more than one test reads,
// so the golden comparison rides on the runs the shape tests pay for anyway.
// (No test of the package runs in parallel, so a plain map will do.)
var figMemo = map[string][]Table{}

func testCfgTables(t *testing.T, name string) []Table {
	t.Helper()
	if tables, ok := figMemo[name]; ok {
		return tables
	}
	tables, err := Registry()[name](testCfg)
	if err != nil {
		t.Fatal(err)
	}
	figMemo[name] = tables
	return tables
}

// goldenFigures lists every experiment whose tables are a function of the
// config alone — all but the timing figures 11 and 12 — in the order the
// golden file renders them.
var goldenFigures = []string{
	"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig13", "fig14", "fig15", "fig16", "fig17",
	"topk", "classify", "correlated", "chisquare",
}

// TestGoldenFigures pins the reproduction itself: every deterministic table
// the package produces (goldenFigures) at small scale and a fixed seed,
// compared character for character with a checked-in rendering, and the
// accuracy ordering the paper reports read off the tables of Figure 4
// (MUNICH, PROUD, DUST and Euclidean on truncated Gun Point) and Figure 16
// (Euclidean, DUST, UMA and UEMA over every dataset). The shape tests above
// bound what the figures may look like; this one says what they are, so a
// refactor of anything under them — the evaluation, the corpus artifacts it
// reads, the kernels — cannot change the reproduction unnoticed. Regenerate
// with `go test ./internal/experiments -run TestGoldenFigures -update` only
// for a change that means to move a number, and say which in the commit.
func TestGoldenFigures(t *testing.T) {
	var got bytes.Buffer
	for _, name := range goldenFigures {
		for _, tbl := range testCfgTables(t, name) {
			if err := tbl.Render(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	fig4, fig16 := testCfgTables(t, "fig4"), testCfgTables(t, "fig16")
	path := filepath.Join("testdata", "golden_small_seed42.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figure tables differ from %s\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}

	// ranking orders a table set's technique columns by mean F1, best first.
	ranking := func(tables []Table) []string {
		mean := map[string]float64{}
		for _, tbl := range tables {
			for _, row := range tbl.Rows {
				for c := 1; c < len(row); c++ {
					v, err := strconv.ParseFloat(row[c], 64)
					if err != nil {
						t.Fatalf("%s: %q is not numeric", tbl.Name, row[c])
					}
					mean[tbl.Header[c]] += v
				}
			}
		}
		techs := make([]string, 0, len(mean))
		for tech := range mean {
			techs = append(techs, tech)
		}
		sort.Slice(techs, func(i, j int) bool { return mean[techs[i]] > mean[techs[j]] })
		return techs
	}
	if got, want := ranking(fig4), []string{"MUNICH", "PROUD", "Euclidean", "DUST"}; !slices.Equal(got, want) {
		t.Errorf("fig4: techniques rank %q by mean F1, want %q", got, want)
	}
	if got, want := ranking(fig16), []string{"UEMA", "DUST", "UMA", "Euclidean"}; !slices.Equal(got, want) {
		t.Errorf("fig16: techniques rank %q by mean F1, want %q", got, want)
	}
}
