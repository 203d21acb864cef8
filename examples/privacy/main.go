// Privacy simulates the paper's second motivation: privacy-preserving
// publication of personal time series. A data owner perturbs trajectories
// with calibrated noise before release; an analyst later runs similarity
// search on the published (uncertain) data.
//
// The example sweeps the privacy level (noise sigma) and shows the
// utility/privacy trade-off for plain Euclidean versus the UEMA measure:
// UEMA retains usable accuracy at noise levels where Euclidean has already
// collapsed, i.e. the publisher can buy more privacy for the same utility.
//
//	go run ./examples/privacy
package main

import (
	"fmt"
	"log"

	"uncertts"
)

const (
	nUsers = 40
	length = 96
	seed   = 3
)

func main() {
	// Clean personal series (daily-activity-like smooth shapes).
	ds, err := uncertts.GenerateDataset("50words", uncertts.DatasetOptions{
		MaxSeries: nUsers, Length: length, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Privacy-preserving publication: utility (similarity-search F1)")
	fmt.Println("as the privacy noise grows. Uniform perturbation, K=8 ground truth.")
	fmt.Println()
	fmt.Println("sigma   Euclidean  UEMA(w=2)   UEMA advantage")

	for _, sigma := range []float64{0.2, 0.6, 1.0, 1.4, 2.0} {
		pert, err := uncertts.NewConstantPerturber(uncertts.Uniform, sigma, length, seed)
		if err != nil {
			log.Fatal(err)
		}
		w, err := uncertts.NewWorkload(ds, pert, uncertts.WorkloadConfig{K: 8})
		if err != nil {
			log.Fatal(err)
		}
		eu, err := uncertts.Evaluate(w, uncertts.Technique{Measure: uncertts.MeasureEuclidean}, nil)
		if err != nil {
			log.Fatal(err)
		}
		ue, err := uncertts.Evaluate(w, uncertts.Technique{Measure: uncertts.MeasureUEMA}, nil)
		if err != nil {
			log.Fatal(err)
		}
		euF1 := uncertts.AverageMetrics(eu).F1
		ueF1 := uncertts.AverageMetrics(ue).F1
		fmt.Printf("%.1f     %.3f      %.3f       %+.3f\n", sigma, euF1, ueF1, ueF1-euF1)
	}

	fmt.Println()
	fmt.Println("Reading: pick the largest sigma whose UEMA F1 still meets the")
	fmt.Println("analyst's utility bar — that sigma is the privacy budget the")
	fmt.Println("publisher can afford.")
}
