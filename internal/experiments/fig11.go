package experiments

import (
	"fmt"
	"time"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/timeseries"
	"uncertts/internal/uncertain"
)

// timePerQuery measures the mean wall-clock time of the technique's answer
// over the queries, as the paper timed it: the definitional scan — every
// pruning device off — on one worker.
func timePerQuery(w *core.Workload, t Technique, queries []int) (time.Duration, error) {
	b, err := bind(w, t, engine.Options{NoPrune: true, Workers: 1})
	if err != nil {
		return 0, err
	}
	// One warm-up query lets lazy structures (DUST tables) build outside
	// the measured region, as a real deployment would amortise them.
	if _, err := b.match(queries[0]); err != nil {
		return 0, err
	}
	start := time.Now()
	for _, qi := range queries {
		if _, err := b.match(qi); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(len(queries)), nil
}

// timingRow runs PROUD, DUST and Euclidean on one workload and reports
// microseconds per query for each.
func timingRow(w *core.Workload, queries []int) (proudUS, dustUS, euclUS float64, err error) {
	p, err := timePerQuery(w, Technique{Measure: engine.MeasurePROUD, Tau: 0.5}, queries)
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := timePerQuery(w, techDUST, queries)
	if err != nil {
		return 0, 0, 0, err
	}
	e, err := timePerQuery(w, techEuclidean, queries)
	if err != nil {
		return 0, 0, 0, err
	}
	toUS := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return toUS(p), toUS(d), toUS(e), nil
}

// Fig11 reproduces Figure 11: CPU time per query for PROUD, DUST and
// Euclidean while the error standard deviation grows (normal errors,
// averaged over all datasets). Sigma barely affects any of them; Euclidean
// is fastest, DUST costliest.
func Fig11(cfg Config) ([]Table, error) {
	p := cfg.params()
	datasets := cfg.datasets()
	t := Table{
		Name:    "fig11",
		Caption: "time per query (microseconds) vs error stddev, normal error, averaged over all datasets",
		Header:  []string{"sigma", "PROUD", "DUST", "Euclidean"},
	}
	for _, sigma := range p.sigmas {
		var pSum, dSum, eSum float64
		for di, ds := range datasets {
			pert, err := uncertain.NewConstantPerturber(uncertain.Normal, sigma, p.length, cfg.Seed+int64(di)*53)
			if err != nil {
				return nil, err
			}
			w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: p.k})
			if err != nil {
				return nil, err
			}
			queries := queryIndexes(w, p.queries)
			pu, du, eu, err := timingRow(w, queries)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig11 %s sigma=%v: %w", ds.Name, sigma, err)
			}
			pSum += pu
			dSum += du
			eSum += eu
		}
		n := float64(len(datasets))
		t.Rows = append(t.Rows, []string{
			fmtS(sigma),
			fmt.Sprintf("%.1f", pSum/n),
			fmt.Sprintf("%.1f", dSum/n),
			fmt.Sprintf("%.1f", eSum/n),
		})
	}
	return []Table{t}, nil
}

// Fig12 reproduces Figure 12: CPU time per query while the series length
// grows from 50 to 1000 points (series obtained by resampling, exactly as
// the paper does). Time grows linearly with length for every technique.
func Fig12(cfg Config) ([]Table, error) {
	p := cfg.params()
	lengths := []int{50, 100, 200, 400, 600, 800, 1000}
	if cfg.Scale == ScaleSmall {
		lengths = []int{50, 200, 600, 1000}
	}
	datasets := cfg.datasets()
	if len(datasets) > 4 && cfg.Scale != ScaleFull {
		datasets = datasets[:4] // timing shape needs few datasets
	}
	const sigma = 0.6
	t := Table{
		Name:    "fig12",
		Caption: "time per query (microseconds) vs series length (resampled), normal error sigma=0.6",
		Header:  []string{"length", "PROUD", "DUST", "Euclidean"},
	}
	for _, length := range lengths {
		var pSum, dSum, eSum float64
		for di, ds := range datasets {
			resampled, err := ds.Resampled(length)
			if err != nil {
				return nil, err
			}
			resampled = timeseries.Dataset{Name: ds.Name, Series: resampled.Series}.Normalize()
			pert, err := uncertain.NewConstantPerturber(uncertain.Normal, sigma, length, cfg.Seed+int64(di)*29)
			if err != nil {
				return nil, err
			}
			w, err := core.NewWorkload(resampled, pert, core.WorkloadConfig{K: p.k})
			if err != nil {
				return nil, err
			}
			queries := queryIndexes(w, p.queries)
			pu, du, eu, err := timingRow(w, queries)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig12 %s len=%d: %w", ds.Name, length, err)
			}
			pSum += pu
			dSum += du
			eSum += eu
		}
		n := float64(len(datasets))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", length),
			fmt.Sprintf("%.1f", pSum/n),
			fmt.Sprintf("%.1f", dSum/n),
			fmt.Sprintf("%.1f", eSum/n),
		})
	}
	return []Table{t}, nil
}
