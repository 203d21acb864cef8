package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"uncertts/bench/stat"
)

// relSpread is how far apart repeated values of one metric lie, as a share
// of their median: max minus min for up to three values (too few for
// quartiles to mean anything), the inter-quartile distance beyond that.
func relSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	lo, hi, med := slices.Min(values), slices.Max(values), stat.Median(values)
	if lo == hi {
		return 0
	}
	if med == 0 {
		return math.Inf(1)
	}
	if len(values) <= 3 {
		return (hi - lo) / math.Abs(med)
	}
	return stat.Spread(values)
}

// agreementRow says whether the sets of one -sets run agree on one metric.
type agreementRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Agrees   bool      `json:"agrees"`
}

// agreement checks that repeated sets of the same code agree on every
// end-to-end metric within the metric's own bound.
func agreement(rf *resultFile) (rows []agreementRow, ok bool) {
	ok = true
	med := rf.medians()
	for _, wl := range workloads {
		for _, sp := range rf.Specs {
			values, has := med[wl.Name][sp.Name]
			if !has || !sp.on(wl.Name) {
				continue
			}
			row := agreementRow{Workload: wl.Name, Metric: sp.Name, Values: values, Spread: relSpread(values), Bound: sp.Bound}
			row.Agrees = row.Spread <= sp.Bound
			if math.IsInf(row.Spread, 0) {
				row.Spread = -1 // JSON has no infinity; -1 marks a zero median with unequal values
			}
			ok = ok && row.Agrees
			rows = append(rows, row)
		}
	}
	return rows, ok
}

func printAgreement(w io.Writer, rows []agreementRow) {
	fmt.Fprintf(w, "\n== agreement between sets\n   %-14s %-24s %9s %7s  %s\n", "workload", "metric", "spread", "bound", "verdict")
	for _, r := range rows {
		verdict := "agrees"
		if !r.Agrees {
			verdict = "DISAGREES"
		}
		fmt.Fprintf(w, "   %-14s %-24s %8.1f%% %6.0f%%  %s %v\n", r.Workload, r.Metric, 100*r.Spread, 100*r.Bound, verdict, r.Values)
	}
}

// compare prints one row per workload and end-to-end metric of two result
// files and reports whether anything got worse. The ratio is new over old,
// printed with its base (the old median).
func compare(w io.Writer, oldRF, newRF *resultFile) (worse bool) {
	om, nm := oldRF.medians(), newRF.medians()
	fmt.Fprintf(w, "   %-14s %-24s %12s %12s %-6s %16s %7s %7s  %s\n", "workload", "metric", "old", "new", "unit", "new/old (base)", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, sp := range newRF.Specs {
			ov, nv := om[wl.Name][sp.Name], nm[wl.Name][sp.Name]
			if len(ov) == 0 || len(nv) == 0 || !sp.on(wl.Name) {
				continue
			}
			o, n := stat.Median(ov), stat.Median(nv)
			spread := math.Max(relSpread(ov), relSpread(nv))
			verdict := verdictOf(sp, o, n, spread)
			worse = worse || verdict == "worse"
			ratio := "-"
			if o != 0 {
				ratio = fmt.Sprintf("%.3f (%.4g)", n/o, o)
			}
			fmt.Fprintf(w, "   %-14s %-24s %12.4f %12.4f %-6s %16s %6.1f%% %6.0f%%  %s\n", wl.Name, sp.Name, o, n, sp.Unit, ratio, 100*spread, 100*sp.Bound, verdict)
		}
	}
	return worse
}

// verdictOf judges one metric: worse when it moved the wrong way by more
// than both its bound and the run-to-run spread; unresolved when the spread
// is wider than the bound, so the bound cannot be checked; better when it
// moved the right way by more than the spread. error_rate is absolute: any
// rise is worse.
func verdictOf(sp spec, o, n, spread float64) string {
	if sp.Name == "error_rate" {
		switch {
		case n > o:
			return "worse"
		case n < o:
			return "better"
		}
		return "same"
	}
	if o == 0 {
		if n == 0 {
			return "same"
		}
		if (n > 0) == (sp.Better == higher) {
			return "better"
		}
		return "worse"
	}
	worsening := (n - o) / math.Abs(o)
	if sp.Better == higher {
		worsening = -worsening
	}
	switch {
	case worsening > math.Max(sp.Bound, spread):
		return "worse"
	case -worsening > spread && worsening != 0:
		return "better"
	case spread > sp.Bound:
		return "unresolved"
	}
	return "same"
}
