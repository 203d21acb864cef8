package experiments

import (
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/uncertain"
)

// Correlated is an extension experiment probing the paper's closing
// observation ("a fruitful research direction is to take into account the
// temporal correlations in the time series") from the error side: what
// happens when the *errors themselves* are temporally correlated, breaking
// the independence assumption every technique shares?
//
// The error stddev is fixed and the AR(1) coefficient rho is swept. The
// techniques are told the (correct) marginal distribution but not the
// correlation. Expect the moving-average measures to lose part of their
// advantage as rho grows: averaging neighbours cancels less noise when the
// noise no longer averages out.
func Correlated(cfg Config) ([]Table, error) {
	p := cfg.params()
	const sigma = 0.8
	rhos := []float64{0, 0.3, 0.6, 0.9}
	t := Table{
		Name:    "correlated",
		Caption: fmt.Sprintf("F1 vs AR(1) error correlation rho, normal error sigma=%.1f, averaged over all datasets", sigma),
		Header:  []string{"rho", "Euclidean", "DUST", "UMA", "UEMA"},
	}
	datasets := cfg.datasets()
	for _, rho := range rhos {
		sums := make([]float64, 4)
		for di, ds := range datasets {
			pert, err := uncertain.NewAR1Perturber(uncertain.Normal, sigma, rho, p.length, cfg.Seed+int64(di)*569)
			if err != nil {
				return nil, err
			}
			w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: p.k})
			if err != nil {
				return nil, err
			}
			queries := queryIndexes(w, p.queries)
			for mi, tech := range distanceTechniques {
				f1, err := meanF1(w, tech, queries)
				if err != nil {
					return nil, err
				}
				sums[mi] += f1
			}
		}
		n := float64(len(datasets))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", rho),
			fmtF(sums[0] / n), fmtF(sums[1] / n), fmtF(sums[2] / n), fmtF(sums[3] / n),
		})
	}
	return []Table{t}, nil
}
