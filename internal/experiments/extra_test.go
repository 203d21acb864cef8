package experiments

import (
	"strconv"
	"testing"

	"uncertts/internal/ucr"
)

func TestTopKShapes(t *testing.T) {
	tables := testCfgTables(t, "topk")
	tbl := tables[0]
	if len(tbl.Rows) != 17 {
		t.Fatalf("want 17 rows, got %d", len(tbl.Rows))
	}
	var euSum, ueSum float64
	for _, row := range tbl.Rows {
		for i := 1; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || v < 0 || v > 1 {
				t.Errorf("%s column %d: bad overlap %q", row[0], i, row[i])
			}
		}
		e, _ := strconv.ParseFloat(row[1], 64)
		u, _ := strconv.ParseFloat(row[4], 64)
		euSum += e
		ueSum += u
	}
	// The paper's ordering must carry over to the top-k task on average.
	if ueSum < euSum {
		t.Errorf("topk: mean UEMA overlap (%v) below Euclidean (%v)", ueSum/17, euSum/17)
	}
}

func TestClassifyShapes(t *testing.T) {
	tables := testCfgTables(t, "classify")
	tbl := tables[0]
	if len(tbl.Rows) != 17 {
		t.Fatalf("want 17 rows, got %d", len(tbl.Rows))
	}
	// At the tiny test scale some datasets have ~1 series per class (e.g.
	// 16 series over 50 classes), which makes leave-one-out 1-NN accuracy
	// meaningless; assert quality only where each class has a few members.
	classes := map[string]int{}
	for _, spec := range ucr.Specs() {
		classes[spec.Name] = spec.Classes
	}
	p := testCfg.params()
	for _, row := range tbl.Rows {
		exact, _ := strconv.ParseFloat(row[1], 64)
		perClass := p.maxSeries / classes[row[0]]
		if perClass >= 4 && exact < 0.5 {
			t.Errorf("%s: exact-data 1-NN accuracy %v is implausibly low (%d series/class)",
				row[0], exact, perClass)
		}
		for i := 2; i < len(row); i++ {
			v, err := strconv.ParseFloat(row[i], 64)
			if err != nil || v < 0 || v > 1 {
				t.Errorf("%s column %d: bad accuracy %q", row[0], i, row[i])
			}
		}
	}
}
