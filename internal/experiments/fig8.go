package experiments

import (
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/uncertain"
)

// mixedErrorFigure is the shared engine of Figures 8, 9 and 10: per-dataset
// F1 of Euclidean, DUST and PROUD under the mixed-sigma perturbation (20%
// of timestamps with sigma 1.0, 80% with sigma 0.4).
//
//   - Figure 8: normal errors; PROUD is stuck with a constant reported
//     sigma of 0.7 (it cannot model per-timestamp variation) while DUST is
//     told the true per-timestamp mixture.
//   - Figure 9: each timestamp draws its family from {uniform, normal,
//     exponential}; DUST still gets the truth.
//   - Figure 10: normal errors, but DUST too is (wrongly) told sigma = 0.7
//     everywhere, erasing its advantage.
func mixedErrorFigure(cfg Config, name, caption string, families []uncertain.ErrorFamily, misreportDust bool) ([]Table, error) {
	p := cfg.params()
	t := Table{
		Name:    name,
		Caption: caption,
		Header:  []string{"dataset", "Euclidean", "DUST", "PROUD"},
	}
	for di, ds := range cfg.datasets() {
		pert, err := mixedPerturber(families, p.length, cfg.Seed+int64(di)*977)
		if err != nil {
			return nil, err
		}
		// DUST's view: the truth, unless this is the Figure 10 scenario.
		dustCfg := core.WorkloadConfig{K: p.k}
		if misreportDust {
			dustCfg.ReportedErrors = uncertain.MisreportSigma(uncertain.Normal, 0.7, p.length)
		}
		dustW, err := core.NewWorkload(ds, pert, dustCfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s dataset %s: %w", name, ds.Name, err)
		}
		// PROUD's view: constant sigma 0.7 — the paper: "in this
		// experiment, PROUD was using a standard deviation setting of 0.7".
		proudW := dustW
		if !misreportDust {
			proudW, err = core.NewWorkload(ds, pert, core.WorkloadConfig{
				K:              p.k,
				ReportedErrors: uncertain.MisreportSigma(uncertain.Normal, 0.7, p.length),
			})
			if err != nil {
				return nil, err
			}
		}

		queries := queryIndexes(dustW, p.queries)
		proudT, err := calibrated(proudW, engine.MeasurePROUD, p.calibrationQueries(queries))
		if err != nil {
			return nil, err
		}

		eF1, err := meanF1(dustW, techEuclidean, queries)
		if err != nil {
			return nil, err
		}
		dF1, err := meanF1(dustW, techDUST, queries)
		if err != nil {
			return nil, err
		}
		pF1, err := meanF1(proudW, proudT, queries)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{ds.Name, fmtF(eF1), fmtF(dF1), fmtF(pF1)})
	}
	return []Table{t}, nil
}

// Fig8 reproduces Figure 8: mixed-sigma normal error per dataset; DUST,
// knowing the true per-timestamp sigmas, gains a few points over PROUD and
// Euclidean.
func Fig8(cfg Config) ([]Table, error) {
	return mixedErrorFigure(cfg, "fig8",
		"F1 per dataset, mixed normal error (20% sigma 1.0, 80% sigma 0.4); PROUD told constant 0.7",
		[]uncertain.ErrorFamily{uncertain.Normal}, false)
}

// Fig9 reproduces Figure 9: the error family itself is mixed per timestamp
// (uniform, normal and exponential); the techniques converge.
func Fig9(cfg Config) ([]Table, error) {
	return mixedErrorFigure(cfg, "fig9",
		"F1 per dataset, mixed-family error (uniform+normal+exponential), 20% sigma 1.0 / 80% sigma 0.4",
		uncertain.AllErrorFamilies(), false)
}

// Fig10 reproduces Figure 10: as Figure 8 but DUST too is told the wrong
// constant sigma 0.7, so its advantage over PROUD/Euclidean disappears.
func Fig10(cfg Config) ([]Table, error) {
	return mixedErrorFigure(cfg, "fig10",
		"F1 per dataset, mixed normal error with sigma misreported as constant 0.7 to every technique",
		[]uncertain.ErrorFamily{uncertain.Normal}, true)
}
