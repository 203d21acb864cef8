package experiments

import (
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/uncertain"
)

// movingAverageFigure is the shared engine of Figures 15-17: per-dataset F1
// of Euclidean, DUST, UMA and UEMA under mixed-sigma error of the given
// family. The paper's settings: w = 2 (window length 5) and lambda = 1.
func movingAverageFigure(cfg Config, name string, family uncertain.ErrorFamily) ([]Table, error) {
	p := cfg.params()
	t := Table{
		Name: name,
		Caption: fmt.Sprintf(
			"F1 per dataset, mixed %s error (20%% sigma 1.0, 80%% sigma 0.4); UMA/UEMA with w=2, lambda=1", family),
		Header: []string{"dataset", "Euclidean", "DUST", "UMA", "UEMA"},
	}
	for di, ds := range cfg.datasets() {
		pert, err := mixedPerturber([]uncertain.ErrorFamily{family}, p.length, cfg.Seed+int64(di)*389)
		if err != nil {
			return nil, err
		}
		wl, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: p.k})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s dataset %s: %w", name, ds.Name, err)
		}
		queries := queryIndexes(wl, p.queries)
		row := []string{ds.Name}
		for _, tech := range distanceTechniques {
			f1, err := meanF1(wl, tech, queries)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtF(f1))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Fig15 reproduces Figure 15: per-dataset F1 under mixed uniform error.
// UMA and UEMA consistently beat DUST and Euclidean.
func Fig15(cfg Config) ([]Table, error) {
	return movingAverageFigure(cfg, "fig15", uncertain.Uniform)
}

// Fig16 reproduces Figure 16: per-dataset F1 under mixed normal error.
func Fig16(cfg Config) ([]Table, error) {
	return movingAverageFigure(cfg, "fig16", uncertain.Normal)
}

// Fig17 reproduces Figure 17: per-dataset F1 under mixed exponential error,
// the hardest case for Euclidean.
func Fig17(cfg Config) ([]Table, error) {
	return movingAverageFigure(cfg, "fig17", uncertain.Exponential)
}
