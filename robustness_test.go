package hap_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hap"
)

// Every facade entry point must reject adversarial parameters with an error
// (solvers) or an Err-carrying result (simulations) — never a panic. This
// is the library-level face of the cmd binaries' no-panic guarantee.
func TestFacadeNoPanicOnAdversarialParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	models := map[string]*hap.Model{
		"negative-lambda": hap.NewSymmetric(-1, 0.001, 0.01, 0.01, 0.1, 20, 5, 3),
		"zero-mu":         hap.NewSymmetric(0.0055, 0, 0.01, 0.01, 0.1, 20, 5, 3),
		"nan-app-rate":    hap.NewSymmetric(0.0055, 0.001, nan, 0.01, 0.1, 20, 5, 3),
		"inf-msg-rate":    hap.NewSymmetric(0.0055, 0.001, 0.01, 0.01, inf, 20, 5, 3),
		"nan-service":     hap.NewSymmetric(0.0055, 0.001, 0.01, 0.01, 0.1, nan, 5, 3),
	}
	for name, m := range models {
		m := m
		noPanic(t, name+"/solve2", func() error { _, err := hap.Solve2(m); return err })
		noPanic(t, name+"/solve1", func() error { _, err := hap.Solve1(m); return err })
		noPanic(t, name+"/solve0", func() error { _, err := hap.Solve0(m, nil); return err })
		noPanic(t, name+"/exact", func() error { _, err := hap.SolveExact(m, nil); return err })
		noPanic(t, name+"/poisson", func() error { _, err := hap.SolvePoisson(m); return err })
		noPanic(t, name+"/bounded", func() error { _, err := hap.SolveBounded(m, 10, 10); return err })
		noPanic(t, name+"/quantiles", func() error { _, err := hap.DelayQuantiles(m, nil, 0.5); return err })
		noPanic(t, name+"/maxworkload", func() error { _, _, err := hap.MaxWorkload(m, 1); return err })
		if name != "nan-service" {
			// RequiredBandwidth searches over the service rate, replacing
			// the model's own, so a service-only defect is legitimately
			// repaired rather than rejected.
			noPanic(t, name+"/bandwidth", func() error { _, err := hap.RequiredBandwidth(m, 1); return err })
		}
		noPanic(t, name+"/simulate", func() error {
			return hap.Simulate(m, hap.SimConfig{Horizon: 100, Seed: 1}).Err
		})
	}
	noPanic(t, "simulate/neg-horizon", func() error {
		return hap.Simulate(hap.PaperParams(20), hap.SimConfig{Horizon: -5}).Err
	})
	noPanic(t, "simulate-poisson/nan-rate", func() error {
		return hap.SimulatePoisson(nan, 10, hap.SimConfig{Horizon: 100}).Err
	})
	noPanic(t, "simulate-onoff/zero-rates", func() error {
		return hap.SimulateOnOff(&hap.TwoLevel{}, hap.SimConfig{Horizon: 100}).Err
	})
	noPanic(t, "simulate-cs/empty", func() error {
		return hap.SimulateCS(&hap.CSModel{}, hap.SimConfig{Horizon: 100}).Err
	})
	topo := hap.NetTandem("rows", []float64{10}, 0)
	for _, tc := range []struct {
		name string
		ing  hap.NetIngress
	}{
		{"poisson-rate=0", hap.NetPoissonIngress(0, 0, -1)},
		{"poisson-rate=NaN", hap.NetPoissonIngress(nan, 0, -1)},
		{"poisson-rate=+Inf", hap.NetPoissonIngress(inf, 0, -1)},
		{"hap-invalid-model", hap.NetHAPIngress(models["zero-mu"], 0, -1)},
		{"onoff-invalid-model", hap.NetOnOffIngress(&hap.TwoLevel{}, 0, -1)},
	} {
		name := "simulate-network/" + tc.name
		noPanic(t, name, func() error {
			// The event budget ends a run whose source schedules every
			// arrival at t = 0 instead of rejecting its rate.
			err := hap.SimulateNetwork(topo, []hap.NetIngress{tc.ing}, hap.NetConfig{Horizon: 100, Seed: 1, MaxEvents: 10000}).Err
			wantBadParameter(t, name, err)
			return err
		})
	}
	ings := []hap.NetIngress{hap.NetPoissonIngress(1, 0, -1)}
	for _, n := range []int{0, -3} {
		n := n
		name := fmt.Sprintf("simulate-replications/n=%d", n)
		noPanic(t, name, func() error {
			agg, err := hap.SimulateReplications(context.Background(), hap.PaperParams(20), hap.SimConfig{Horizon: 100, Seed: 1}, n, 0)
			_ = agg.Merged.MeanDelay() // the natural read must not panic
			wantBadParameter(t, name, err)
			return err
		})
		name = fmt.Sprintf("simulate-network-replicated/n=%d", n)
		noPanic(t, name, func() error {
			err := hap.SimulateNetworkReplicated(topo, ings, hap.NetConfig{Horizon: 100, Seed: 1}, n, 0).Err
			wantBadParameter(t, name, err)
			return err
		})
	}
}

func wantBadParameter(t *testing.T, name string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, hap.ErrBadParameter) {
		t.Errorf("%s: err %v, want ErrBadParameter", name, err)
	}
}

// noPanic runs f expecting a non-nil error and no panic.
func noPanic(t *testing.T, name string, f func() error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", name, r)
		}
	}()
	if err := f(); err == nil {
		t.Errorf("%s: expected an error for adversarial input", name)
	}
}

// Diagnostics ride along on every iterative facade result.
func TestFacadeResultsCarryDiagnostics(t *testing.T) {
	m := hap.PaperParams(20)
	for name, solve := range map[string]func() (hap.SolveResult, error){
		"solve1": func() (hap.SolveResult, error) { return hap.Solve1(m) },
		"solve2": func() (hap.SolveResult, error) { return hap.Solve2(m) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Iterations <= 0 {
			t.Errorf("%s: result %+v, want converged with a positive iteration count", name, res.Diag())
		}
		if !(res.Residual >= 0) {
			t.Errorf("%s: residual %v, want non-negative", name, res.Residual)
		}
	}
}

// The facade replication wrapper must honour cancellation end to end.
func TestFacadeReplicationsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	agg, err := hap.SimulateReplications(ctx, hap.PaperParams(20),
		hap.SimConfig{Horizon: 1e6, Seed: 1}, 8, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if code := hap.ExitCode(err); code != 5 {
		t.Errorf("exit code %d, want 5 (cancelled)", code)
	}
	if agg == nil || !agg.Truncated {
		t.Error("aggregate must exist and be flagged Truncated")
	}
}

func TestFacadeUnstableTyped(t *testing.T) {
	m := hap.PaperParams(5) // λ̄ = 8.25 > μ'' = 5
	for name, solve := range map[string]func() (hap.SolveResult, error){
		"solve1":  func() (hap.SolveResult, error) { return hap.Solve1(m) },
		"solve2":  func() (hap.SolveResult, error) { return hap.Solve2(m) },
		"exact":   func() (hap.SolveResult, error) { return hap.SolveExact(m, nil) },
		"poisson": func() (hap.SolveResult, error) { return hap.SolvePoisson(m) },
	} {
		if _, err := solve(); !errors.Is(err, hap.ErrUnstable) {
			t.Errorf("%s: err = %v, want hap.ErrUnstable", name, err)
		}
	}
}
