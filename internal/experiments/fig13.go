package experiments

import (
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/uncertain"
)

// umaWorkloads builds the mixed-sigma normal workloads behind the Section 5
// parameter studies (Figures 13 and 14). The paper perturbs with the
// mixed-sigma normal error for these experiments.
func umaWorkloads(cfg Config) ([]*core.Workload, error) {
	p := cfg.params()
	var out []*core.Workload
	for di, ds := range cfg.datasets() {
		pert, err := mixedPerturber([]uncertain.ErrorFamily{uncertain.Normal}, p.length, cfg.Seed+int64(di)*613)
		if err != nil {
			return nil, err
		}
		w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: p.k})
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// averageF1Over evaluates a technique over every workload and returns the
// overall mean F1.
func averageF1Over(ws []*core.Workload, queries int, t Technique) (float64, error) {
	var sum float64
	var count int
	for _, w := range ws {
		f1, err := meanF1(w, t, queryIndexes(w, queries))
		if err != nil {
			return 0, err
		}
		sum += f1
		count++
	}
	return sum / float64(count), nil
}

// Fig13 reproduces Figure 13: F1 as a function of the window half-width w
// for UMA, UEMA with lambda 0.1 and UEMA with lambda 1, averaged over all
// datasets. w = 0 degenerates to plain Euclidean; accuracy peaks around
// w = 2 and decays for wide windows.
func Fig13(cfg Config) ([]Table, error) {
	p := cfg.params()
	ws, err := umaWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	windows := []int{0, 1, 2, 3, 4, 6, 8, 10, 14, 20}
	if cfg.Scale == ScaleSmall {
		windows = []int{0, 1, 2, 4, 8, 14}
	}
	t := Table{
		Name:    "fig13",
		Caption: "F1 vs window half-width w for UMA and UEMA (lambda = 0.1, 1), mixed normal error",
		Header:  []string{"w", "UMA", "UEMA-0.1", "UEMA-1"},
	}
	for _, w := range windows {
		uma, err := averageF1Over(ws, p.queries, UMA(w))
		if err != nil {
			return nil, err
		}
		uema01, err := averageF1Over(ws, p.queries, UEMA(w, 0.1))
		if err != nil {
			return nil, err
		}
		uema1, err := averageF1Over(ws, p.queries, UEMA(w, 1))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", w), fmtF(uma), fmtF(uema01), fmtF(uema1)})
	}
	return []Table{t}, nil
}

// Fig14 reproduces Figure 14: F1 as a function of the decaying factor
// lambda for UEMA with w = 5 and w = 10. Lambda has only a small effect.
func Fig14(cfg Config) ([]Table, error) {
	p := cfg.params()
	ws, err := umaWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	lambdas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	if cfg.Scale == ScaleSmall {
		lambdas = []float64{0, 0.2, 0.5, 1}
	}
	t := Table{
		Name:    "fig14",
		Caption: "F1 vs decaying factor lambda for UEMA (w = 5, 10), mixed normal error",
		Header:  []string{"lambda", "UEMA-5", "UEMA-10"},
	}
	for _, lambda := range lambdas {
		w5, err := averageF1Over(ws, p.queries, UEMA(5, lambda))
		if err != nil {
			return nil, err
		}
		w10, err := averageF1Over(ws, p.queries, UEMA(10, lambda))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.1f", lambda), fmtF(w5), fmtF(w10)})
	}
	return []Table{t}, nil
}
