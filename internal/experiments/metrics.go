package experiments

// Metrics holds precision, recall and their F1 combination (Equation 14),
// the score of one answer against its ground truth.
type Metrics struct {
	Precision float64
	Recall    float64
	F1        float64
	// TruePositives, FalsePositives and FalseNegatives expose the raw
	// confusion counts behind the ratios.
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Score compares a result set against the ground truth (both sets of series
// IDs) and returns the metrics. Conventions for degenerate cases: empty
// truth and empty result is perfect (all ones); empty result against
// non-empty truth has recall 0; precision of an empty result is defined as
// 0 unless the truth is empty too.
func Score(result, truth []int) Metrics {
	rset := make(map[int]bool, len(result))
	for _, id := range result {
		rset[id] = true
	}
	tset := make(map[int]bool, len(truth))
	for _, id := range truth {
		tset[id] = true
	}
	var tp, fp, fn int
	for id := range rset {
		if tset[id] {
			tp++
		} else {
			fp++
		}
	}
	for id := range tset {
		if !rset[id] {
			fn++
		}
	}
	m := Metrics{TruePositives: tp, FalsePositives: fp, FalseNegatives: fn}
	switch {
	case len(rset) == 0 && len(tset) == 0:
		m.Precision, m.Recall, m.F1 = 1, 1, 1
		return m
	case len(rset) == 0:
		return m // all zeros
	case len(tset) == 0:
		return m
	}
	m.Precision = float64(tp) / float64(tp+fp)
	m.Recall = float64(tp) / float64(tp+fn)
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// AverageMetrics averages a slice of Metrics component-wise; experiments
// aggregate per-query metrics this way before plotting.
func AverageMetrics(ms []Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{}
	}
	var out Metrics
	for _, m := range ms {
		out.Precision += m.Precision
		out.Recall += m.Recall
		out.F1 += m.F1
		out.TruePositives += m.TruePositives
		out.FalsePositives += m.FalsePositives
		out.FalseNegatives += m.FalseNegatives
	}
	n := float64(len(ms))
	out.Precision /= n
	out.Recall /= n
	out.F1 /= n
	return out
}

// F1s extracts the F1 column, for confidence-interval computation.
func F1s(ms []Metrics) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.F1
	}
	return out
}
