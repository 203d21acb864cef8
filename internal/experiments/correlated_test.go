package experiments

import (
	"strconv"
	"testing"
)

func TestCorrelatedShapes(t *testing.T) {
	tables := testCfgTables(t, "correlated")
	tbl := tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 rho rows, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for i := 1; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || v < 0 || v > 1 {
				t.Errorf("rho=%s column %d: bad F1 %q", row[0], i, row[i])
			}
		}
	}
	// At rho=0 the UMA advantage over Euclidean exists; at rho=0.9 the
	// advantage must shrink (correlated noise does not average out).
	gap := func(rho string) float64 {
		return f(t, tbl, "UMA", rho) - f(t, tbl, "Euclidean", rho)
	}
	if gap("0.9") > gap("0.0")+0.02 {
		t.Errorf("UMA advantage should not grow under correlated noise: rho=0 gap %v, rho=0.9 gap %v",
			gap("0.0"), gap("0.9"))
	}
}
