package experiments

import (
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/timeseries"
	"uncertts/internal/ucr"
	"uncertts/internal/uncertain"
)

// Fig4 reproduces Figure 4: F1 of MUNICH, PROUD, DUST and Euclidean on the
// Gun Point dataset truncated to 60 series of length 6, with 5 samples per
// timestamp for MUNICH, 5 queries, and the error standard deviation swept
// over [0.2, 2.0] for the three error families. MUNICH's accuracy collapses
// for sigma > 0.6 while the others degrade gracefully.
func Fig4(cfg Config) ([]Table, error) {
	const (
		nSeries      = 60
		length       = 6
		samplesPerTS = 5
		nQueries     = 5
		k            = 10
	)
	full, err := ucr.Generate("GunPoint", ucr.Options{MaxSeries: nSeries, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ds := full.Truncated(nSeries, length)
	// Re-normalize after truncation so distances stay on the usual scale.
	ds = timeseries.Dataset{Name: ds.Name, Series: ds.Series}.Normalize()

	p := cfg.params()
	var tables []Table
	for _, family := range uncertain.AllErrorFamilies() {
		t := Table{
			Name:    "fig4-" + family.String(),
			Caption: fmt.Sprintf("F1 on truncated Gun Point (60x6, 5 samples/ts), %s error", family),
			Header:  []string{"sigma", "MUNICH", "PROUD", "DUST", "Euclidean"},
		}
		for _, sigma := range p.sigmas {
			pert, err := uncertain.NewConstantPerturber(family, sigma, length, cfg.Seed+int64(sigma*1000))
			if err != nil {
				return nil, err
			}
			w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: k, SamplesPerTS: samplesPerTS})
			if err != nil {
				return nil, err
			}
			queries := queryIndexes(w, nQueries)
			calQs := p.calibrationQueries(queries)
			munichT, err := calibrated(w, engine.MeasureMUNICH, calQs)
			if err != nil {
				return nil, err
			}
			proudT, err := calibrated(w, engine.MeasurePROUD, calQs)
			if err != nil {
				return nil, err
			}
			row := []string{fmtS(sigma)}
			for _, tech := range []Technique{munichT, proudT, techDUST, techEuclidean} {
				f1, err := meanF1(w, tech, queries)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtF(f1))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
