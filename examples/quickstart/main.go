// Quickstart: perturb a dataset, run every technique on the same
// similarity-matching task, and print the F1 leaderboard.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"uncertts"
)

func main() {
	// 1. A clean dataset (synthetic stand-in for UCR CBF: cylinder, bell
	//    and funnel shapes).
	ds, err := uncertts.GenerateDataset("CBF", uncertts.DatasetOptions{
		MaxSeries: 40, Length: 96, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Corrupt it with zero-mean Gaussian sensor noise, sigma = 0.8.
	pert, err := uncertts.NewConstantPerturber(uncertts.Normal, 0.8, 96, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Build the workload: ground truth comes from the clean data (each
	//    query's 10 nearest neighbours), the techniques only ever see the
	//    noisy observations.
	w, err := uncertts.NewWorkload(ds, pert, uncertts.WorkloadConfig{K: 10})
	if err != nil {
		log.Fatal(err)
	}

	// 4. PROUD needs its probability threshold calibrated (the paper uses
	//    the "optimal tau determined after repeated experiments").
	proud := uncertts.Technique{Measure: uncertts.MeasurePROUD}
	proud.Tau, _, err = uncertts.CalibrateTau(w, proud, []int{0, 1, 2, 3}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Same task, five techniques (UMA and UEMA at the paper's w = 2,
	//    lambda = 1).
	techniques := []uncertts.Technique{
		{Measure: uncertts.MeasureEuclidean},
		proud,
		{Measure: uncertts.MeasureDUST},
		{Measure: uncertts.MeasureUMA},
		{Measure: uncertts.MeasureUEMA},
	}
	fmt.Println("technique         F1     precision  recall")
	for _, t := range techniques {
		ms, err := uncertts.Evaluate(w, t, nil)
		if err != nil {
			log.Fatal(err)
		}
		avg := uncertts.AverageMetrics(ms)
		fmt.Printf("%-16s  %.3f  %.3f      %.3f\n", t.Measure, avg.F1, avg.Precision, avg.Recall)
	}
	fmt.Println("\nExpect UEMA and UMA on top: they exploit the temporal")
	fmt.Println("correlation of neighbouring points that the other techniques ignore.")
}
