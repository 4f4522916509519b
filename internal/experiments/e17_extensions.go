package experiments

import (
	"fmt"
	"time"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/mmpp"
	"hap/internal/par"
	"hap/internal/sim"
	"hap/internal/solver"
	"hap/internal/trace"
)

// E17 and E18 implement the paper's stated future-work directions
// (Section 7): multiplexing HAP with non-HAP (real-time) traffic, and the
// claim from the introduction that a general (2-state) MMPP is not an
// appropriate model for computer-network traffic.

func init() {
	register(Experiment{ID: "E17", Title: "Section 6/7: multiplexing HAP with real-time (CBR) traffic", Run: runE17})
	register(Experiment{ID: "E18", Title: "Intro claim: a fitted 2-state MMPP understates HAP delay", Run: runE18})
}

func runE17(c *Context) (*Result, error) {
	start := time.Now()
	res := &Result{ID: "E17", Title: "Multiplexing HAP with CBR voice"}
	// A voice-like CBR stream (one message every 50 ms) shares the server
	// with background traffic of rate 8.25. The controlled comparison
	// holds the capacity and every load constant and swaps only the
	// background's *burstiness*: HAP versus Poisson at the same rate. Any
	// CBR-delay difference is then purely the hierarchy's doing — the
	// clean form of Section 6's "the less bursty applications will suffer".
	const (
		cbrRate = 20.0
		bgRate  = 8.25
	)
	totalMu := (cbrRate + bgRate) / 0.70 // load where bursts bite
	horizon := c.horizon(2e6, 2e5)
	m := core.PaperParams(totalMu)

	// The two shared-queue simulations are independent (separate seeds and
	// stream sets), so they run concurrently.
	var withHAP, withPoisson *sim.RunResult
	var cbrClass int
	c.printf("E17: CBR + HAP and CBR + Poisson over %g s each, in parallel...\n", horizon)
	if err := par.All(
		func() error {
			// Shared queue A: CBR + HAP background.
			hapSrc := sim.NewHAPSource(m, dist.NewStreams(c.Seed+17).Next())
			cbrClass = hapSrc.ClassCount()
			cbrA := sim.NewCBRSource(1/cbrRate, totalMu, cbrClass)
			withHAP = sim.Run(sim.NewMulti(hapSrc, cbrA), sim.Config{
				Horizon: horizon, Seed: c.Seed + 17,
				Measure: sim.MeasureConfig{Warmup: horizon / 100, ClassCount: cbrClass + 1},
			})
			return nil
		},
		func() error {
			// Shared queue B: CBR + Poisson background at the identical rate.
			poisBg := sim.NewPoissonSource(bgRate, totalMu, dist.NewStreams(c.Seed+18).Next())
			cbrB := sim.NewCBRSource(1/cbrRate, totalMu, 1)
			withPoisson = sim.Run(sim.NewMulti(poisBg, cbrB), sim.Config{
				Horizon: horizon, Seed: c.Seed + 18,
				Measure: sim.MeasureConfig{Warmup: horizon / 100, ClassCount: 2},
			})
			return nil
		},
	); err != nil {
		return nil, err
	}

	cbrWithHAP := withHAP.Meas.ByClass[cbrClass].Mean()
	cbrWithPoisson := withPoisson.Meas.ByClass[1].Mean()
	penalty := cbrWithHAP / cbrWithPoisson
	if err := c.writeCSV("sec6_multiplexing",
		trace.Series{Name: "cbr_with_hap_delay", Values: []float64{cbrWithHAP}},
		trace.Series{Name: "cbr_with_poisson_delay", Values: []float64{cbrWithPoisson}},
		trace.Series{Name: "penalty", Values: []float64{penalty}}); err != nil {
		return nil, err
	}
	res.addRow("CBR delay beside Poisson background", "(baseline)", fnum(cbrWithPoisson), "")
	res.addRow("CBR delay beside HAP background", "suffers a lot", fnum(cbrWithHAP),
		boolVerdict(penalty > 1.3, "real-time class penalised"))
	res.addRow("burstiness penalty (same rate, same capacity)", "avoid mixing with HAP",
		fmt.Sprintf("%.2f×", penalty), boolVerdict(penalty > 1.3, "Section 6 implication"))
	res.setValue("penalty", penalty)
	res.Elapsed = time.Since(start)
	return res, nil
}

func runE18(c *Context) (*Result, error) {
	start := time.Now()
	res := &Result{ID: "E18", Title: "2-state MMPP comparator"}
	m := core.PaperParams(17) // ρ = 0.485, where correlation bites
	fit, err := mmpp.FitFromHAP(m)
	if err != nil {
		return nil, err
	}
	// Exact queueing for both processes by the same matrix-geometric
	// machinery: like for like. The HAP side needs a floor on the
	// truncation — starving its tail would understate the very delay the
	// comparison is about.
	bu, ba := sweepBounds(c)
	if bu < 10 {
		bu = 10
	}
	if ba < 64 {
		ba = 64
	}
	c.printf("E18: exact HAP solve at bounds (%d,%d), MMPP2 and Poisson in parallel...\n", bu, ba)
	var hapExact, m2Exact, pois solver.Result
	if err := par.All(
		func() (err error) {
			hapExact, err = solver.Solution0MG(m, &solver.Options{MaxUsers: bu, MaxApps: ba})
			return err
		},
		func() (err error) {
			m2Exact, err = solver.SolveMMPPQueue(fit.General(), 17, nil)
			return err
		},
		func() (err error) {
			pois, err = solver.Poisson(m)
			return err
		},
	); err != nil {
		return nil, err
	}

	if err := c.writeCSV("intro_mmpp2_comparator",
		trace.Series{Name: "hap_exact_delay", Values: []float64{hapExact.Delay}},
		trace.Series{Name: "mmpp2_delay", Values: []float64{m2Exact.Delay}},
		trace.Series{Name: "poisson_delay", Values: []float64{pois.Delay}}); err != nil {
		return nil, err
	}
	res.addRow("fitted MMPP2 mean rate", "8.25 (matched)", fnum(m2Exact.MeanRate),
		verdictClose(m2Exact.MeanRate, 8.25, 0.01))
	res.addRow("delay: Poisson < MMPP2 < HAP", "hierarchy matters beyond 2nd moments",
		fmt.Sprintf("%.3g < %.3g < %.3g", pois.Delay, m2Exact.Delay, hapExact.Delay),
		boolVerdict(pois.Delay < m2Exact.Delay && m2Exact.Delay < hapExact.Delay, "shape"))
	res.addRow("MMPP2 shortfall vs HAP", "2-state MMPP insufficient",
		fmt.Sprintf("captures %.0f%% of the HAP delay", 100*m2Exact.Delay/hapExact.Delay),
		boolVerdict(m2Exact.Delay < 0.9*hapExact.Delay, "understates"))
	res.setValue("hapDelay", hapExact.Delay)
	res.setValue("mmpp2Delay", m2Exact.Delay)
	res.setValue("poissonDelay", pois.Delay)
	res.Elapsed = time.Since(start)
	return res, nil
}
