package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// testCfg is a deliberately tiny configuration so the full suite stays fast;
// the per-figure shape assertions hold even at this scale.
var testCfg = Config{Scale: ScaleSmall, Seed: 42}

func f(t *testing.T, tbl Table, col string, keys ...string) float64 {
	t.Helper()
	s, ok := tbl.Lookup(col, keys...)
	if !ok {
		t.Fatalf("table %s: no value for %s at %v", tbl.Name, col, keys)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("table %s: %s at %v is not numeric: %q", tbl.Name, col, keys, s)
	}
	return v
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{{"small", ScaleSmall}, {"MEDIUM", ScaleMedium}, {"full", ScaleFull}} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale should error")
	}
	if ScaleSmall.String() != "small" || ScaleFull.String() != "full" {
		t.Error("Scale.String broken")
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"chisquare", "classify", "correlated", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "topk"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestTableRenderAndLookup(t *testing.T) {
	tbl := Table{
		Name:    "demo",
		Caption: "demo table",
		Header:  []string{"a", "b"},
		Rows:    [][]string{{"x", "1"}, {"y", "2"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo table") || !strings.Contains(out, "x") {
		t.Errorf("render output missing content:\n%s", out)
	}
	if v, ok := tbl.Lookup("b", "y"); !ok || v != "2" {
		t.Errorf("Lookup = %q, %v", v, ok)
	}
	if _, ok := tbl.Lookup("zz", "y"); ok {
		t.Error("unknown column should miss")
	}
	if _, ok := tbl.Lookup("b", "zzz"); ok {
		t.Error("unknown key should miss")
	}
}

func TestChiSquareRejectsEverywhere(t *testing.T) {
	tables := testCfgTables(t, "chisquare")
	tbl := tables[0]
	if len(tbl.Rows) != 17 {
		t.Fatalf("want 17 rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "true" {
			t.Errorf("%s: uniformity not rejected", row[0])
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	tables := testCfgTables(t, "fig4")
	if len(tables) != 3 {
		t.Fatalf("want 3 family tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		// At the smallest sigma every technique should be decent...
		for _, tech := range []string{"MUNICH", "PROUD", "DUST", "Euclidean"} {
			lo := f(t, tbl, tech, "0.2")
			if lo < 0.35 {
				t.Errorf("%s: %s F1 at sigma=0.2 = %v, too low", tbl.Name, tech, lo)
			}
		}
		// ...and high noise must not beat low noise for MUNICH (the
		// collapse the paper highlights).
		mLo := f(t, tbl, "MUNICH", "0.2")
		mHi := f(t, tbl, "MUNICH", "2.0")
		if mHi > mLo {
			t.Errorf("%s: MUNICH F1 grew with noise: %v -> %v", tbl.Name, mLo, mHi)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	tables := testCfgTables(t, "fig5")
	if len(tables) != 3 {
		t.Fatalf("want 3 tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		// Accuracy at sigma=0.2 must beat accuracy at sigma=2.0 for every
		// technique (noise hurts).
		for _, tech := range []string{"PROUD", "DUST", "Euclidean"} {
			lo := f(t, tbl, tech, "0.2")
			hi := f(t, tbl, tech, "2.0")
			if hi >= lo {
				t.Errorf("%s: %s F1 did not degrade: %v -> %v", tbl.Name, tech, lo, hi)
			}
		}
		// "Virtually no difference among the techniques": DUST and
		// Euclidean stay close at every sigma (PROUD is grid-calibrated so
		// it may trail at the smallest scale).
		for _, row := range tbl.Rows {
			sigma := row[0]
			d := f(t, tbl, "DUST", sigma)
			e := f(t, tbl, "Euclidean", sigma)
			if diff := d - e; diff > 0.35 || diff < -0.35 {
				t.Errorf("%s sigma=%s: DUST %v vs Euclidean %v too far apart", tbl.Name, sigma, d, e)
			}
		}
	}
}

func TestFig6Fig7Shapes(t *testing.T) {
	t6, t7 := testCfgTables(t, "fig6"), testCfgTables(t, "fig7")
	for _, pair := range [][]Table{t6, t7} {
		if len(pair) != 2 {
			t.Fatalf("want precision+recall tables, got %d", len(pair))
		}
		prec := pair[0]
		// Precision decays with sigma (the paper's key observation).
		for _, family := range []string{"uniform", "normal", "exponential"} {
			lo := f(t, prec, family, "0.2")
			hi := f(t, prec, family, "2.0")
			if hi >= lo {
				t.Errorf("%s %s: precision did not decay: %v -> %v", prec.Name, family, lo, hi)
			}
		}
	}
}

func TestFig8Fig9Fig10Shapes(t *testing.T) {
	for _, name := range []string{"fig8", "fig9", "fig10"} {
		tbl := testCfgTables(t, name)[0]
		if len(tbl.Rows) != 17 {
			t.Fatalf("%s: want 17 dataset rows, got %d", name, len(tbl.Rows))
		}
		for _, row := range tbl.Rows {
			for i := 1; i < len(row); i++ {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil || v < 0 || v > 1 {
					t.Errorf("%s %s: column %d out of range: %q", name, row[0], i, row[i])
				}
			}
		}
	}
}

func TestFig11Fig12Shapes(t *testing.T) {
	// Fig. 11 compares wall-clock times of a few tens of microseconds, which
	// one descheduled query inverts on a busy machine: each cell is the best
	// of three runs, as a benchmark keeps its best cycle.
	var sigmas []string
	var eucl, dust []float64
	for run := 0; run < 3; run++ {
		t11, err := Fig11(testCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range t11[0].Rows {
			e, _ := strconv.ParseFloat(row[3], 64)
			d, _ := strconv.ParseFloat(row[2], 64)
			if run == 0 {
				sigmas, eucl, dust = append(sigmas, row[0]), append(eucl, e), append(dust, d)
				continue
			}
			eucl[i], dust[i] = min(eucl[i], e), min(dust[i], d)
		}
	}
	for i, sigma := range sigmas {
		if eucl[i] > dust[i] {
			t.Errorf("fig11 sigma=%s: Euclidean (%v us) slower than DUST (%v us), best of three runs", sigma, eucl[i], dust[i])
		}
	}

	t12, err := Fig12(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := t12[0].Rows
	first, _ := strconv.ParseFloat(rows[0][2], 64)          // DUST at length 50
	last, _ := strconv.ParseFloat(rows[len(rows)-1][2], 64) // DUST at length 1000
	if last <= first {
		t.Errorf("fig12: DUST time should grow with length: %v -> %v", first, last)
	}
}

func TestFig13Fig14Shapes(t *testing.T) {
	t13 := testCfgTables(t, "fig13")
	tbl := t13[0]
	// w=0 is plain Euclidean; a small positive w must improve accuracy.
	base := f(t, tbl, "UMA", "0")
	best := base
	for _, row := range tbl.Rows {
		if v := f(t, tbl, "UMA", row[0]); v > best {
			best = v
		}
	}
	if best <= base {
		t.Errorf("fig13: no window size improves over w=0 (base %v)", base)
	}

	t14 := testCfgTables(t, "fig14")
	for _, row := range t14[0].Rows {
		for i := 1; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || v < 0 || v > 1 {
				t.Errorf("fig14 lambda=%s: bad value %q", row[0], row[i])
			}
		}
	}
}

func TestFig15UMABeatsBaselines(t *testing.T) {
	tbl := testCfgTables(t, "fig16")[0] // normal-error variant, the paper's Fig 16
	// Averaged over all datasets, UEMA must beat Euclidean (the paper's
	// headline).
	var euSum, ueSum float64
	for _, row := range tbl.Rows {
		e, _ := strconv.ParseFloat(row[1], 64)
		u, _ := strconv.ParseFloat(row[4], 64)
		euSum += e
		ueSum += u
	}
	if ueSum <= euSum {
		t.Errorf("fig16: mean UEMA (%v) did not beat mean Euclidean (%v)", ueSum/17, euSum/17)
	}
}
