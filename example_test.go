package uncertts_test

import (
	"fmt"

	"uncertts"
)

// The examples below are deterministic: they seed every random source, so
// godoc renders real outputs.

func ExampleEuclidean() {
	d, _ := uncertts.Euclidean([]float64{0, 0}, []float64{3, 4})
	fmt.Println(d)
	// Output: 5
}

func ExampleUMA() {
	values := []float64{1, 1, 100, 1, 1}
	sigmas := []float64{0.1, 0.1, 10, 0.1, 0.1} // the spike is known to be noisy
	filtered, _ := uncertts.UMA(values, sigmas, 1, uncertts.WeightModeNormalized)
	// (10*1 + 0.1*100 + 10*1) / 20.1: the spike barely counts.
	fmt.Printf("%.2f\n", filtered[2])
	// Output: 1.49
}

func ExampleNewDUST() {
	d := uncertts.NewDUST(uncertts.DUSTOptions{TailWeight: -1})
	errDist := uncertts.NormalDist(0, 0.5)
	// With equal normal errors, dust(x, y) = |x-y| / (2 sigma).
	v, _ := d.Value(0, 1, errDist, errDist)
	fmt.Printf("%.3f\n", v)
	// Output: 1.000
}

func ExampleMUNICHProbability() {
	// Two uncertain series with two observations per timestamp.
	x := uncertts.SampleSeries{Samples: [][]float64{{0, 1}, {0, 1}}, ID: 0}
	y := uncertts.SampleSeries{Samples: [][]float64{{0}, {0}}, ID: 1}
	// Materialisations of x: (0,0) (0,1) (1,0) (1,1); distances to y:
	// 0, 1, 1, sqrt(2). Within eps=1: three of four.
	p, _ := uncertts.MUNICHProbability(x, y, 1, uncertts.MUNICHOptions{})
	fmt.Println(p)
	// Output: 0.75
}

func ExampleNewWorkload() {
	ds, _ := uncertts.GenerateDataset("CBF", uncertts.DatasetOptions{
		MaxSeries: 20, Length: 64, Seed: 1,
	})
	pert, _ := uncertts.NewConstantPerturber(uncertts.Normal, 0.4, 64, 1)
	w, _ := uncertts.NewWorkload(ds, pert, uncertts.WorkloadConfig{K: 5})
	ms, _ := uncertts.Evaluate(w, uncertts.Technique{Measure: uncertts.MeasureUEMA}, []int{0})
	fmt.Printf("queries evaluated: %d, ground truth size: %d\n",
		len(ms), len(w.Truth(0)))
	// Output: queries evaluated: 1, ground truth size: 5
}
