package sim

import (
	"math"
	"testing"

	"hap/internal/core"
	"hap/internal/dist"
)

func TestCBRSourceRateAndRegularity(t *testing.T) {
	streams := dist.NewStreams(1)
	src := NewCBRSource(0.05, dist.NewExponential(100), 0, streams.Next())
	res := Run(src, Config{Horizon: 1000, Seed: 1,
		Measure: MeasureConfig{Warmup: 10, KeepArrivalTimes: 1 << 16}})
	wantClose(t, "rate", res.Meas.ObservedRate(), 20, 0.02)
	ia := res.Meas.Interarrivals()
	for _, x := range ia {
		if math.Abs(x-0.05) > 1e-9 {
			t.Fatalf("jitterless CBR interarrival %v != 0.05", x)
		}
	}
}

func TestCBRSourceJitter(t *testing.T) {
	streams := dist.NewStreams(2)
	src := NewCBRSource(0.05, dist.NewExponential(100), 0, streams.Next())
	src.Jitter = dist.NewUniform(0.0001, 0.01)
	res := Run(src, Config{Horizon: 2000, Seed: 2,
		Measure: MeasureConfig{KeepArrivalTimes: 1 << 16}})
	ia := res.Meas.Interarrivals()
	var varAcc, mean float64
	for _, x := range ia {
		mean += x
	}
	mean /= float64(len(ia))
	for _, x := range ia {
		varAcc += (x - mean) * (x - mean)
	}
	if varAcc == 0 {
		t.Error("jitter produced perfectly regular arrivals")
	}
	// Mean interval = 0.05 + E[jitter].
	wantClose(t, "mean interval", mean, 0.05+(0.0001+0.01)/2, 0.02)
}

// TestCBRValidation: a zero, negative, NaN or infinite interval must
// panic at construction. A NaN interval would re-arm every emission at a
// NaN time, which is never past the horizon, and hang the run.
func TestCBRValidation(t *testing.T) {
	for _, iv := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("interval %v must panic", iv)
				}
			}()
			NewCBRSource(iv, dist.NewExponential(1), 0, nil)
		}()
	}
}

func TestMultiSuperposesRates(t *testing.T) {
	streams := dist.NewStreams(3)
	svc := dist.NewExponential(100)
	a := NewPoissonSource(5, svc, streams.Next())
	b := NewPoissonSource(7, svc, streams.Next())
	cbr := NewCBRSource(0.5, svc, 0, streams.Next()) // 2/s
	res := Run(NewMulti(a, b, cbr), Config{Horizon: 50000, Seed: 3,
		Measure: MeasureConfig{Warmup: 100}})
	wantClose(t, "superposed rate", res.Meas.ObservedRate(), 14, 0.03)
}

func TestMultiHAPPlusCBRPenalisesCBR(t *testing.T) {
	// The Section 6 implication in miniature: CBR sharing a queue with a
	// HAP sees far worse delay than alone at its proportional capacity.
	m := core.PaperParams(20)
	streams := dist.NewStreams(4)
	totalMu := 40.0
	svc := dist.NewExponential(totalMu)
	hapSrc := NewHAPSource(m, streams.Next())
	hapSrc.ServiceOverride = svc
	cbr := NewCBRSource(0.05, svc, hapSrc.ClassCount(), streams.Next()) // 20/s
	shared := Run(NewMulti(hapSrc, cbr), Config{Horizon: 100000, Seed: 4,
		Measure: MeasureConfig{Warmup: 1000, ClassCount: hapSrc.ClassCount() + 1}})

	streams2 := dist.NewStreams(5)
	aloneMu := totalMu * 20 / 28.25
	alone := Run(NewCBRSource(0.05, dist.NewExponential(aloneMu), 0, streams2.Next()),
		Config{Horizon: 100000, Seed: 5, Measure: MeasureConfig{Warmup: 1000, ClassCount: 1}})

	sharedCBR := shared.Meas.ByClass[hapSrc.ClassCount()].Mean()
	if sharedCBR <= alone.Meas.MeanDelay() {
		t.Errorf("CBR delay shared %v should exceed dedicated %v", sharedCBR, alone.Meas.MeanDelay())
	}
}

func TestMultiValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty Multi must panic")
		}
	}()
	NewMulti()
}

func TestMultiString(t *testing.T) {
	streams := dist.NewStreams(6)
	svc := dist.NewExponential(1)
	m := NewMulti(NewPoissonSource(1, svc, streams.Next()), NewCBRSource(1, svc, 0, streams.Next()))
	if m.String() == "" {
		t.Error("empty description")
	}
}
