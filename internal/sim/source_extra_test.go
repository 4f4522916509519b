package sim

import (
	"math"
	"testing"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/mmpp"
)

func TestCBRSourceRateAndRegularity(t *testing.T) {
	src := NewCBRSource(0.05, 100, 0)
	res := Run(src, Config{Horizon: 1000, Seed: 1,
		Measure: MeasureConfig{Warmup: 10, KeepArrivalTimes: 1 << 16}})
	wantClose(t, "rate", res.Meas.ObservedRate(), 20, 0.02)
	ia := res.Meas.Interarrivals()
	for _, x := range ia {
		if math.Abs(x-0.05) > 1e-9 {
			t.Fatalf("CBR interarrival %v != 0.05", x)
		}
	}
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
			NewCBRSource(iv, 1, 0)
		}()
	}
}

// TestSourceRateValidation: every rate-taking constructor panics on a
// zero, negative, NaN or infinite service rate, and the Poisson source
// on such an arrival rate too.
func TestSourceRateValidation(t *testing.T) {
	proc := mmpp.MMPP2{R0: 2, R1: 20, Q01: 0.02, Q10: 0.08}.General()
	rng := dist.NewStreams(1).Next()
	ctors := map[string]func(v float64){
		"cbr mu":       func(v float64) { NewCBRSource(1, v, 0) },
		"poisson mu":   func(v float64) { NewPoissonSource(1, v, rng) },
		"poisson rate": func(v float64) { NewPoissonSource(v, 1, rng) },
		"mmpp mu":      func(v float64) { NewMMPPSource(proc, v, rng) },
	}
	for name, mk := range ctors {
		mk(1) // a valid value must not panic
		for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s = %v must panic", name, v)
					}
				}()
				mk(v)
			}()
		}
	}
}

func TestMultiSuperposesRates(t *testing.T) {
	streams := dist.NewStreams(3)
	a := NewPoissonSource(5, 100, streams.Next())
	b := NewPoissonSource(7, 100, streams.Next())
	cbr := NewCBRSource(0.5, 100, 0) // 2/s
	res := Run(NewMulti(a, b, cbr), Config{Horizon: 50000, Seed: 3,
		Measure: MeasureConfig{Warmup: 100}})
	wantClose(t, "superposed rate", res.Meas.ObservedRate(), 14, 0.03)
}

func TestMultiHAPPlusCBRPenalisesCBR(t *testing.T) {
	// The Section 6 implication in miniature: CBR sharing a queue with a
	// HAP sees far worse delay than alone at its proportional capacity.
	totalMu := 40.0
	hapSrc := NewHAPSource(core.PaperParams(totalMu), dist.NewStreams(4).Next())
	cbr := NewCBRSource(0.05, totalMu, hapSrc.ClassCount()) // 20/s
	shared := Run(NewMulti(hapSrc, cbr), Config{Horizon: 100000, Seed: 4,
		Measure: MeasureConfig{Warmup: 1000, ClassCount: hapSrc.ClassCount() + 1}})

	aloneMu := totalMu * 20 / 28.25
	alone := Run(NewCBRSource(0.05, aloneMu, 0),
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
	m := NewMulti(NewPoissonSource(1, 1, dist.NewStreams(6).Next()), NewCBRSource(1, 1, 0))
	if m.String() == "" {
		t.Error("empty description")
	}
}
