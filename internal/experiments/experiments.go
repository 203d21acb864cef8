// Package experiments reproduces every figure of the paper's evaluation
// (Figures 4-17) plus the Section 4.1.1 chi-square check. Each experiment
// is a named runner that builds its workloads, executes the techniques
// under the Section 4.1.2 methodology, and returns printable tables whose
// rows mirror the paper's plotted series.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/query"
	"uncertts/internal/stats"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// Scale selects the experiment size. Absolute numbers differ from the
// paper's full-archive runs, but the comparative shape is preserved at
// every scale.
type Scale int

const (
	// ScaleSmall finishes in seconds; used by tests and quick looks.
	ScaleSmall Scale = iota
	// ScaleMedium is the default for regenerating the figures.
	ScaleMedium
	// ScaleFull uses the largest workloads; minutes per figure.
	ScaleFull
)

// ParseScale converts a string flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want small, medium or full)", s)
	}
}

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Config parameterises a run.
type Config struct {
	// Scale selects workload sizes.
	Scale Scale
	// Seed drives every random choice; equal configs reproduce bit-equal
	// tables.
	Seed int64
}

// params bundles the concrete numbers behind a scale.
type params struct {
	maxSeries int       // series per dataset
	length    int       // series length
	queries   int       // queries per dataset
	k         int       // ground-truth neighbourhood size
	sigmas    []float64 // error stddev sweep
	calQs     int       // queries used for tau calibration
}

func (c Config) params() params {
	switch c.Scale {
	case ScaleMedium:
		return params{
			maxSeries: 40, length: 96, queries: 10, k: 10,
			sigmas: sweep(0.2, 2.0, 0.2), calQs: 4,
		}
	case ScaleFull:
		return params{
			maxSeries: 80, length: 160, queries: 20, k: 10,
			sigmas: sweep(0.2, 2.0, 0.2), calQs: 6,
		}
	default:
		return params{
			maxSeries: 16, length: 48, queries: 4, k: 5,
			sigmas: []float64{0.2, 0.6, 1.0, 1.4, 2.0}, calQs: 3,
		}
	}
}

func sweep(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, v)
	}
	return out
}

// Table is a printable experiment result.
type Table struct {
	// Name identifies the table ("fig5-normal", ...).
	Name string
	// Caption explains what the paper figure shows.
	Caption string
	// Header labels the columns.
	Header []string
	// Rows hold the data, one row per plotted point.
	Rows [][]string
}

// Render writes the table with aligned columns.
func (t Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.Name, t.Caption); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Lookup returns the value of column col in the first row whose leading
// columns equal keys; ok reports whether it was found. Tests use it to
// assert figure shapes.
func (t Table) Lookup(col string, keys ...string) (string, bool) {
	ci := -1
	for i, h := range t.Header {
		if h == col {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range t.Rows {
		match := true
		for i, k := range keys {
			if i >= len(row) || row[i] != k {
				match = false
				break
			}
		}
		if match && ci < len(row) {
			return row[ci], true
		}
	}
	return "", false
}

// Runner executes one experiment.
type Runner func(Config) ([]Table, error)

// Registry maps experiment names (fig4 ... fig17, chisquare) to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"chisquare": ChiSquare,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"fig6":      Fig6,
		"fig7":      Fig7,
		"fig8":      Fig8,
		"fig9":      Fig9,
		"fig10":     Fig10,
		"fig11":     Fig11,
		"fig12":     Fig12,
		"fig13":     Fig13,
		"fig14":     Fig14,
		"fig15":     Fig15,
		"fig16":     Fig16,
		"fig17":     Fig17,
		// Extension tasks beyond the paper's figures.
		"topk":       TopK,
		"classify":   Classify,
		"correlated": Correlated,
	}
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	r := Registry()
	out := make([]string, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// datasets generates the 17 stand-in datasets at the configured scale.
func (c Config) datasets() []timeseries.Dataset {
	p := c.params()
	return ucr.GenerateAll(ucr.Options{MaxSeries: p.maxSeries, Length: p.length, Seed: c.Seed})
}

// queryIndexes returns the first n query indexes of a workload (the paper
// uses every series as a query; scaled runs cap the count).
func queryIndexes(w *core.Workload, n int) []int {
	if n <= 0 || n > w.Len() {
		n = w.Len()
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// calibrationQueries returns the leading queries a tau calibration sweeps.
func (p params) calibrationQueries(queries []int) []int {
	if len(queries) > p.calQs {
		return queries[:p.calQs]
	}
	return queries
}

// meanF1 evaluates a technique and returns its mean F1 over the queries.
func meanF1(w *core.Workload, t Technique, queries []int) (float64, error) {
	ms, err := Evaluate(w, t, queries)
	if err != nil {
		return 0, err
	}
	return query.AverageMetrics(ms).F1, nil
}

// The techniques the figures compare at their paper settings (UMA and UEMA
// with w = 2, lambda = 1 — the workload corpus' own filter geometry).
var (
	techEuclidean = Technique{Measure: engine.MeasureEuclidean}
	techDUST      = Technique{Measure: engine.MeasureDUST}
	techUMA       = Technique{Measure: engine.MeasureUMA}
	techUEMA      = Technique{Measure: engine.MeasureUEMA}

	// distanceTechniques lists the distance-based techniques the Section 5
	// figures and the extension tasks compare, in column order.
	distanceTechniques = []Technique{techEuclidean, techDUST, techUMA, techUEMA}
)

// calibrated returns the probabilistic technique at the tau CalibrateTau
// finds for it over the calibration queries.
func calibrated(w *core.Workload, measure engine.Measure, calQs []int) (Technique, error) {
	t := Technique{Measure: measure}
	tau, _, err := CalibrateTau(w, t, calQs, nil)
	if err != nil {
		return t, fmt.Errorf("experiments: %v tau: %w", measure, err)
	}
	t.Tau = tau
	return t, nil
}

// fmtF returns a fixed-precision decimal for table cells.
func fmtF(v float64) string { return fmt.Sprintf("%.4f", v) }

// fmtS formats a sigma value the way the paper's axes label them.
func fmtS(v float64) string { return fmt.Sprintf("%.1f", v) }

// ciHalf returns the 95% CI half-width of the F1 column.
func ciHalf(ms []query.Metrics) float64 {
	return stats.MeanCI(query.F1s(ms), 0.95).HalfWidth()
}

// mixedPerturber builds the paper's mixed-sigma perturber (20% sigma 1.0,
// 80% sigma 0.4) over the given families.
func mixedPerturber(families []uncertain.ErrorFamily, length int, seed int64) (*uncertain.Perturber, error) {
	return uncertain.NewMixedPerturber(uncertain.MixedSigmaSpec{
		Fraction:  0.2,
		SigmaHigh: 1.0,
		SigmaLow:  0.4,
		Families:  families,
	}, length, seed)
}
