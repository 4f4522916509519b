package solver

import (
	"context"
	"math"
	"testing"

	"hap/internal/markov"
	"hap/internal/mmpp"
	"hap/internal/sim"
)

func TestDelayDistributionMM1Exact(t *testing.T) {
	// For M/M/1 the sojourn is Exp(μ−λ); the QBD machinery must recover it.
	lambda, mu := 8.25, 20.0
	chain := markov.NewChain(1)
	proc := mmpp.New(chain, []float64{lambda})
	qb, err := SolveQBD(context.Background(), proc, mu, RMethodLogReduction, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	d := qb.DelayDistribution(1e-12)
	rate := mu - lambda
	for _, y := range []float64{0.01, 0.05, 0.1, 0.3, 0.8} {
		want := math.Exp(-rate * y)
		got := d.CCDF(y)
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("CCDF(%v) = %v, want %v", y, got, want)
		}
	}
	wantClose(t, "mean", d.Mean(), 1/rate, 1e-6)
	wantClose(t, "median", d.Quantile(0.5), math.Ln2/rate, 1e-6)
}

func TestDelayDistributionConsistentWithMeanQueue(t *testing.T) {
	m2 := mmpp.MMPP2{R0: 2, R1: 18, Q01: 0.05, Q10: 0.15}
	qb, err := SolveQBD(context.Background(), m2.General(), 30, RMethodLogReduction, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	d := qb.DelayDistribution(1e-12)
	// Little: E[T] from the distribution equals N̄/λ̄.
	wantClose(t, "mean vs little", d.Mean(), qb.MeanQueue()/qb.MeanRate(), 1e-6)
	// P_arr sums to ~1 and CCDF is monotone.
	var sum float64
	for _, p := range d.parr {
		sum += p
	}
	wantClose(t, "arrival mass", sum, 1, 1e-8)
	prev := 1.0
	for _, y := range []float64{0, 0.01, 0.1, 0.5, 2} {
		v := d.CCDF(y)
		if v > prev+1e-12 {
			t.Errorf("CCDF not monotone at %v", y)
		}
		prev = v
	}
}

func TestDelayDistributionMatchesSimulatedQuantiles(t *testing.T) {
	m := fastModel()
	bu, ba := mmpp.DefaultBounds(m, 8)
	proc, _, err := mmpp.FromHAPSimplified(m, bu, ba)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := SolveQBD(context.Background(), proc, 50, RMethodLogReduction, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	d := qb.DelayDistribution(1e-11)

	simRes := sim.RunHAP(m, sim.Config{Horizon: 150000, Seed: 5,
		Measure: sim.MeasureConfig{Warmup: 500, DelayHistBins: 4000, DelayHistMax: 2}})
	for _, p := range []float64{0.5, 0.9, 0.99} {
		qa := d.Quantile(p)
		qs := simRes.Meas.DelayH.Quantile(p)
		if math.Abs(qa-qs)/qa > 0.12 {
			t.Errorf("q%.2f: analytic %v vs simulated %v", p, qa, qs)
		}
	}
}
