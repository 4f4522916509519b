package fit

import (
	"context"
	"errors"
	"testing"

	"hap/internal/dist"
	"hap/internal/haperr"
	"hap/internal/mmpp"
	"hap/internal/sim"
)

func simMMPP2(truth mmpp.MMPP2) Simulator {
	return func(seed int64, cfg sim.Config) []float64 {
		cfg.Seed = seed
		streams := dist.NewStreams(seed + 1)
		src := sim.NewMMPPSource(truth.General(), 40, streams.Next())
		return sim.Run(src, cfg).Meas.Arrivals
	}
}

func TestEMRoundTripMMPP2(t *testing.T) {
	arrivals, slack := arrivalsBudget(t)
	if arrivals > 300_000 {
		arrivals = 300_000
	}
	truth := mmpp.MMPP2{R0: 2, R1: 20, Q01: 0.02, Q10: 0.05}
	rt, err := Simulate(simMMPP2(truth), RoundTripConfig{
		MeanRate: truth.MeanRate(), Arrivals: arrivals, Reps: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := FitMMPP2EM(context.Background(), rt.Times, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRel(t, "R0", f.Model.R0, truth.R0, 0.05*slack)
	checkRel(t, "R1", f.Model.R1, truth.R1, 0.05*slack)
	checkRel(t, "rate", f.Model.MeanRate(), truth.MeanRate(), 0.05*slack)
	// Switching rates come through the Markov-renewal approximation:
	// looser band.
	checkRel(t, "Q01", f.Model.Q01, truth.Q01, 0.25*slack)
	checkRel(t, "Q10", f.Model.Q10, truth.Q10, 0.25*slack)
	if !f.Diag.Converged || f.Diag.Iterations == 0 || f.Diag.Residual < 0 {
		t.Errorf("missing convergence diagnostics: %v", f.Diag)
	}
	if f.Rates[0] > f.Rates[1] {
		t.Errorf("states not in canonical order: %v", f.Rates)
	}
}

func TestEMBudgetExhaustion(t *testing.T) {
	truth := mmpp.MMPP2{R0: 2, R1: 20, Q01: 0.02, Q10: 0.05}
	rt, err := Simulate(simMMPP2(truth), RoundTripConfig{
		MeanRate: truth.MeanRate(), Arrivals: 20_000, Reps: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := FitMMPP2EM(context.Background(), rt.Times, EMOptions{MaxIter: 2})
	if !errors.Is(err, haperr.ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
	// The best iterate is still returned, flagged through Diag.
	if f.Diag.Converged {
		t.Error("Diag.Converged should be false")
	}
	if f.Diag.Iterations != 2 {
		t.Errorf("Diag.Iterations = %d, want 2", f.Diag.Iterations)
	}
	if f.Diag.Residual <= 0 {
		t.Errorf("Diag.Residual = %g, want the final log-likelihood delta", f.Diag.Residual)
	}
	if vErr := f.Model.Validate(); vErr != nil {
		t.Errorf("best iterate should still be a valid MMPP2: %v", vErr)
	}
	if haperr.ExitCode(err) != haperr.ExitNotConverged {
		t.Errorf("exit code = %d, want %d", haperr.ExitCode(err), haperr.ExitNotConverged)
	}
}

func TestEMCancellation(t *testing.T) {
	truth := mmpp.MMPP2{R0: 2, R1: 20, Q01: 0.02, Q10: 0.05}
	rt, err := Simulate(simMMPP2(truth), RoundTripConfig{
		MeanRate: truth.MeanRate(), Arrivals: 20_000, Reps: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = FitMMPP2EM(ctx, rt.Times, EMOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled wrapped, got %v", err)
	}
	if haperr.ExitCode(err) != haperr.ExitCancelled {
		t.Errorf("exit code = %d, want %d", haperr.ExitCode(err), haperr.ExitCancelled)
	}
}

func TestEMRejectsBadInput(t *testing.T) {
	if _, err := FitMMPP2EM(context.Background(), []float64{1, 2, 3}, EMOptions{}); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("short trace: want ErrBadParameter, got %v", err)
	}
	bad := []float64{0, 1, 2, 3, 2.5, 4, 5, 6, 7}
	if _, err := FitMMPP2EM(context.Background(), bad, EMOptions{}); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("unsorted trace: want ErrBadParameter, got %v", err)
	}
}

func TestEMTruncatesToPrefix(t *testing.T) {
	times := make([]float64, 1001)
	for i := range times {
		times[i] = float64(i)
	}
	f, err := FitMMPP2EM(context.Background(), times, EMOptions{MaxSamples: 100, MaxIter: 5})
	if err != nil && !errors.Is(err, haperr.ErrNotConverged) {
		t.Fatal(err)
	}
	if f.Samples != 100 {
		t.Errorf("Samples = %d, want 100", f.Samples)
	}
}
