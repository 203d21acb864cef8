package experiments

import (
	"fmt"
	"sync"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/query"
	"uncertts/internal/uncertain"
)

// sweepPoint aggregates one (family, sigma) cell of the Figures 5-7 sweep:
// per-query metrics pooled over all datasets for each technique.
type sweepPoint struct {
	proud     []query.Metrics
	dust      []query.Metrics
	euclidean []query.Metrics
}

// sweepResult is the full PROUD/DUST/Euclidean sweep over all datasets,
// error families and error standard deviations.
type sweepResult struct {
	families []uncertain.ErrorFamily
	sigmas   []float64
	points   map[uncertain.ErrorFamily]map[string]*sweepPoint // keyed by fmtS(sigma)
}

var (
	sweepMu    sync.Mutex
	sweepCache = map[Config]*sweepResult{}
)

// runSweep executes (or returns the memoised) sweep behind Figures 5, 6 and
// 7: every dataset, every family, every sigma, techniques PROUD (calibrated
// tau), DUST, and Euclidean.
func runSweep(cfg Config) (*sweepResult, error) {
	sweepMu.Lock()
	if r, ok := sweepCache[cfg]; ok {
		sweepMu.Unlock()
		return r, nil
	}
	sweepMu.Unlock()

	p := cfg.params()
	res := &sweepResult{
		families: uncertain.AllErrorFamilies(),
		sigmas:   p.sigmas,
		points:   map[uncertain.ErrorFamily]map[string]*sweepPoint{},
	}
	datasets := cfg.datasets()
	for _, family := range res.families {
		res.points[family] = map[string]*sweepPoint{}
		for _, sigma := range p.sigmas {
			pt := &sweepPoint{}
			res.points[family][fmtS(sigma)] = pt
			for di, ds := range datasets {
				pert, err := uncertain.NewConstantPerturber(family, sigma, p.length, cfg.Seed+int64(di)*131+int64(sigma*1000))
				if err != nil {
					return nil, err
				}
				w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: p.k})
				if err != nil {
					return nil, fmt.Errorf("experiments: sweep %s sigma=%v dataset=%s: %w", family, sigma, ds.Name, err)
				}
				queries := queryIndexes(w, p.queries)
				proudT, err := calibrated(w, engine.MeasurePROUD, p.calibrationQueries(queries))
				if err != nil {
					return nil, err
				}
				proudMs, err := Evaluate(w, proudT, queries)
				if err != nil {
					return nil, err
				}
				dustMs, err := Evaluate(w, techDUST, queries)
				if err != nil {
					return nil, err
				}
				euclMs, err := Evaluate(w, techEuclidean, queries)
				if err != nil {
					return nil, err
				}
				pt.proud = append(pt.proud, proudMs...)
				pt.dust = append(pt.dust, dustMs...)
				pt.euclidean = append(pt.euclidean, euclMs...)
			}
		}
	}

	sweepMu.Lock()
	sweepCache[cfg] = res
	sweepMu.Unlock()
	return res, nil
}

// Fig5 reproduces Figure 5: F1 of PROUD, DUST and Euclidean averaged over
// all datasets as the error standard deviation grows, one table per error
// family. The paper's finding: "there is virtually no difference among the
// different techniques". 95% confidence-interval half-widths are attached
// to each mean, mirroring the paper's error bars.
func Fig5(cfg Config) ([]Table, error) {
	res, err := runSweep(cfg)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, family := range res.families {
		t := Table{
			Name:    "fig5-" + family.String(),
			Caption: fmt.Sprintf("F1 over all datasets, %s error (paper Fig 5)", family),
			Header:  []string{"sigma", "PROUD", "PROUD-ci", "DUST", "DUST-ci", "Euclidean", "Euclidean-ci"},
		}
		for _, sigma := range res.sigmas {
			pt := res.points[family][fmtS(sigma)]
			t.Rows = append(t.Rows, []string{
				fmtS(sigma),
				fmtF(query.AverageMetrics(pt.proud).F1), fmtF(ciHalf(pt.proud)),
				fmtF(query.AverageMetrics(pt.dust).F1), fmtF(ciHalf(pt.dust)),
				fmtF(query.AverageMetrics(pt.euclidean).F1), fmtF(ciHalf(pt.euclidean)),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig6 reproduces Figure 6: PROUD precision and recall as functions of the
// error standard deviation, one curve per error family. Recall stays in a
// high band while precision decays sharply.
func Fig6(cfg Config) ([]Table, error) {
	return precisionRecallTables(cfg, "fig6", "PROUD", func(pt *sweepPoint) []query.Metrics { return pt.proud })
}

// Fig7 reproduces Figure 7: DUST precision and recall, same axes as
// Figure 6; DUST trades slightly better precision for lower recall.
func Fig7(cfg Config) ([]Table, error) {
	return precisionRecallTables(cfg, "fig7", "DUST", func(pt *sweepPoint) []query.Metrics { return pt.dust })
}

func precisionRecallTables(cfg Config, name, technique string, pick func(*sweepPoint) []query.Metrics) ([]Table, error) {
	res, err := runSweep(cfg)
	if err != nil {
		return nil, err
	}
	prec := Table{
		Name:    name + "-precision",
		Caption: fmt.Sprintf("%s precision vs error stddev per error family", technique),
		Header:  []string{"sigma", "uniform", "normal", "exponential"},
	}
	rec := Table{
		Name:    name + "-recall",
		Caption: fmt.Sprintf("%s recall vs error stddev per error family", technique),
		Header:  []string{"sigma", "uniform", "normal", "exponential"},
	}
	for _, sigma := range res.sigmas {
		prow := []string{fmtS(sigma)}
		rrow := []string{fmtS(sigma)}
		for _, family := range []uncertain.ErrorFamily{uncertain.Uniform, uncertain.Normal, uncertain.Exponential} {
			m := query.AverageMetrics(pick(res.points[family][fmtS(sigma)]))
			prow = append(prow, fmtF(m.Precision))
			rrow = append(rrow, fmtF(m.Recall))
		}
		prec.Rows = append(prec.Rows, prow)
		rec.Rows = append(rec.Rows, rrow)
	}
	return []Table{prec, rec}, nil
}
