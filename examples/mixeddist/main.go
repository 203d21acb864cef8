// Mixeddist demonstrates the knowledge-sensitivity result of Figures 8-10:
// DUST only beats the simple techniques when its a-priori knowledge of the
// error distributions is *accurate*. The same workload is evaluated three
// times:
//
//  1. DUST told the true per-timestamp mixed sigmas   (Figure 8 setting)
//
//  2. DUST told a wrong constant sigma of 0.7         (Figure 10 setting)
//
//  3. Euclidean, which never uses error knowledge
//
//     go run ./examples/mixeddist
package main

import (
	"fmt"
	"log"

	"uncertts"
)

const (
	nSeries = 36
	length  = 96
	seed    = 11
)

func main() {
	ds, err := uncertts.GenerateDataset("SwedishLeaf", uncertts.DatasetOptions{
		MaxSeries: nSeries, Length: length, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	pert, err := uncertts.NewMixedPerturber(uncertts.MixedSigmaSpec{
		Fraction:  0.2,
		SigmaHigh: 1.0,
		SigmaLow:  0.4,
		Families:  []uncertts.ErrorFamily{uncertts.Normal},
	}, length, seed)
	if err != nil {
		log.Fatal(err)
	}

	// Workload 1: techniques are told the truth.
	truthW, err := uncertts.NewWorkload(ds, pert, uncertts.WorkloadConfig{K: 8})
	if err != nil {
		log.Fatal(err)
	}
	// Workload 2: same observations, but the reported error model lies —
	// "the standard deviation is 0.7 everywhere".
	wrong := make([]uncertts.Dist, length)
	for i := range wrong {
		wrong[i] = uncertts.NormalDist(0, 0.7)
	}
	liedW, err := uncertts.NewWorkload(ds, pert, uncertts.WorkloadConfig{
		K: 8, ReportedErrors: wrong,
	})
	if err != nil {
		log.Fatal(err)
	}

	eval := func(w *uncertts.Workload, measure uncertts.QueryMeasure) float64 {
		ms, err := uncertts.Evaluate(w, uncertts.Technique{Measure: measure}, nil)
		if err != nil {
			log.Fatal(err)
		}
		return uncertts.AverageMetrics(ms).F1
	}

	dustTrue := eval(truthW, uncertts.MeasureDUST)
	dustLied := eval(liedW, uncertts.MeasureDUST)
	eucl := eval(truthW, uncertts.MeasureEuclidean)

	fmt.Println("Mixed error: 20% of timestamps sigma=1.0, 80% sigma=0.4 (normal)")
	fmt.Printf("  DUST with true per-timestamp sigmas : F1 = %.3f\n", dustTrue)
	fmt.Printf("  DUST told constant sigma 0.7 (wrong): F1 = %.3f\n", dustLied)
	fmt.Printf("  Euclidean (no knowledge)            : F1 = %.3f\n", eucl)
	fmt.Println()
	fmt.Println("The paper's guideline: \"when we do not have enough, or accurate")
	fmt.Println("information on the distribution of the error, PROUD and DUST do")
	fmt.Println("not offer an advantage when compared to Euclidean.\"")
}
