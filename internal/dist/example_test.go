package dist_test

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
)

// ExampleSelectBest shows the model-selection workflow the paper applies
// to failed-job execution lengths: draw a sample, fit every candidate
// family, and rank by the KS statistic.
func ExampleSelectBest() {
	truth, err := dist.NewWeibull(0.62, 2100)
	if err != nil {
		fmt.Println(err)
		return
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	best, err := dist.SelectBest(dist.NewSample(data), nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("best family: %s\n", best.Family)
	fmt.Printf("KS below 0.02: %v\n", best.KS < 0.02)
	// Output:
	// best family: weibull
	// KS below 0.02: true
}

// ExampleWeibullFitter demonstrates recovering parameters by maximum
// likelihood.
func ExampleWeibullFitter() {
	truth, _ := dist.NewWeibull(0.7, 3600)
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	fitted, err := (dist.WeibullFitter{}).Fit(dist.NewSample(data))
	if err != nil {
		fmt.Println(err)
		return
	}
	w := fitted.(dist.Weibull)
	fmt.Printf("shape within 5%%: %v\n", w.Shape > 0.665 && w.Shape < 0.735)
	fmt.Printf("scale within 5%%: %v\n", w.Scale > 3420 && w.Scale < 3780)
	// Output:
	// shape within 5%: true
	// scale within 5%: true
}

// ExampleKSPolish shows the KS-minimizing refinement used as the fitting
// ablation in experiment E6.
func ExampleKSPolish() {
	truth, _ := dist.NewExponential(0.001)
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 3000)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	// Deliberately wrong starting point.
	start, _ := dist.NewExponential(0.01)
	sample := dist.NewSample(data)
	_, polishedKS, startKS, err := dist.KSPolish(start, sample, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("polish recovered the law: %v\n", polishedKS < startKS/10)
	// Output:
	// polish recovered the law: true
}
