package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/fit"
	"hap/internal/netgen"
	"hap/internal/obs"
	"hap/internal/sim"
	"hap/internal/solver"
)

// P0 (core.PaperParams) and E1's smallest QBD bounds, the ones its
// exact delay is checked at.
const (
	p0Mu     = 20.0
	p0Rate   = 8.25 // Eq 4's λ̄ at P0
	qbdUsers = 8
	qbdApps  = 48
	// rateConf is the confidence of the simulated-rate check: 99% for the
	// whole of an evaluation's ~100 runs (Bonferroni), so a correct
	// simulator fails it in about one evaluation in a hundred rather than
	// in one run in a hundred.
	rateConf = 1 - 0.01/100
	// heapRegime is the pending-event count below which the simulator's
	// scheduler stays on its binary heap (sim's calendar threshold).
	heapRegime = 4096
)

// sampler polls the simulator's pending-events gauge from outside the
// engine while a simulation phase runs.
type sampler struct {
	stop, done chan struct{}
	vals       []float64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.vals = append(s.vals, obs.Default.Snapshot()["hap_sim_sched_pending"])
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *sampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.vals
}

func runOffline(r *run) error {
	m := core.PaperParams(p0Mu)
	var times []float64
	err := r.setUp(func(int) (float64, error) {
		t0 := time.Now()
		sched, err := netgen.GenerateHAP(m, r.sz.fitHorizon, r.seed)
		if err != nil {
			return 0, err
		}
		times = make([]float64, len(sched.Arrivals))
		for j, a := range sched.Arrivals {
			times[j] = a.T
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}

	// One modeler loop is a unit of each phase; op_ms adds their medians.
	simS, err := offlineSimulate(r, m, 0.25*r.seconds)
	if err != nil {
		return err
	}
	fitS, err := offlineFit(r, times, 0.1*r.seconds)
	if err != nil {
		return err
	}
	solveS, err := offlineSolve(r, m, 0.65*r.seconds)
	if err != nil {
		return err
	}
	r.endToEnd("op_ms", 1000*(simS+fitS+solveS))
	fmt.Printf("p0-offline loop: simulate %.4f s + fit %.4f s + solve %.4f s (median units)\n", simS, fitS, solveS)
	r.perLayer("mem.peak_rss_mb", peakRSSMB())
	if r.traced {
		phases := []string{"simulate", "fit", "solve"}
		for _, ph := range phases {
			r.tr.breakdown(os.Stdout, ph, r.overheads[ph])
		}
		r.layerShares(phases...)
	}
	return nil
}

// offlineSimulate runs sim.ReplicateRuns of sim.RunHAP, one unit of
// replications per seed dist.SubSeed(seed, unit), and returns the median
// unit's wall seconds.
func offlineSimulate(r *run, m *core.Model, budget float64) (float64, error) {
	var (
		rates []float64 // per replication, arrivals per model second
		msgs  float64   // over the traced units
		first struct{ events, msgs, mallocs float64 }
	)
	samp := startSampler()
	walls, err := r.phase("simulate", budget, func(i, root int) error {
		c0 := readCountersIf(r.tr.on.Load())
		id := r.tr.begin("simulate", "par", "sim.ReplicateRuns", root, i)
		rr := sim.ReplicateRuns(r.sz.offReps, dist.SubSeed(r.seed, i), 1, func(rep int, seed int64) *sim.RunResult {
			c := r.tr.begin("simulate", "sim", "sim.RunHAP", id, i)
			defer r.tr.end(c)
			return sim.RunHAP(m, sim.Config{Horizon: r.sz.offHorizon, Seed: seed})
		})
		r.tr.end(id)
		r.attempted += r.sz.offReps
		if rr.Err != nil || rr.Truncated {
			r.failed += r.sz.offReps
			return fmt.Errorf("simulate unit %d: err=%v truncated=%v", i, rr.Err, rr.Truncated)
		}
		if !r.tr.on.Load() { // a traced half repeats the untraced half's seeds
			for _, rep := range rr.Reps {
				rates = append(rates, float64(rep.Arrivals)/r.sz.offHorizon)
			}
		}
		if r.tr.on.Load() {
			c1 := readCounters()
			if i == 0 {
				first.events, first.msgs = float64(rr.Events), float64(rr.Departures)
				first.mallocs = float64(c1.mallocs - c0.mallocs)
			}
			msgs += float64(rr.Departures)
		}
		return nil
	})
	pending := samp.finish()
	if err != nil {
		return 0, err
	}

	// Regime: one source keeps the scheduler on its heap side.
	maxPending := 0.0
	for _, p := range pending {
		maxPending = math.Max(maxPending, p)
	}
	r.check(len(pending) > 0 && maxPending < heapRegime,
		"p0-offline pending events %.0f (of %d samples) not below %d", maxPending, len(pending), heapRegime)

	// Correctness: the replications' mean rate is consistent with Eq 4.
	n := len(rates)
	mean, sd := meanSD(rates)
	half := studentT(rateConf, n-1) * sd / math.Sqrt(float64(n))
	r.check(math.Abs(mean-p0Rate) <= half,
		"simulated mean rate %.4f ± %.4f (%d replications, %.4f%% confidence) excludes λ̄ = %g",
		mean, half, n, 100*rateConf, p0Rate)
	fmt.Printf("p0-offline simulate: %d units, rate %.4f ± %.4f over %d replications, max pending %.0f\n",
		len(walls), mean, half, n, maxPending)

	if r.traced {
		simLayer(r, "simulate", "sim.RunHAP", msgs, first.events/first.msgs, first.mallocs/first.msgs, median(pending))
	}
	return median(walls), nil
}

// simLayer reports the sim layer's per-layer metrics for a phase: messages
// per second of the named call's spans, and the first traced unit's events
// and mallocs per message.
func simLayer(r *run, phase, call string, msgs, eventsPerMsg, mallocsPerMsg, pending float64) {
	r.perLayer("sim.msgs_per_s", msgs/total(r.tr.perCycle(phase, call)))
	r.perLayer("sim.events_per_msg", eventsPerMsg)
	r.perLayer("sim.allocs_per_kmsg", 1000*mallocsPerMsg)
	r.perLayer("sim.pending", pending)
}

// readCountersIf reads the counters only on traced units, where the
// stop-the-world malloc count cannot disturb an end-to-end number.
func readCountersIf(on bool) counters {
	if !on {
		return counters{}
	}
	return readCounters()
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// offlineFit runs fit.Fit, hapfit's model selection, on the set-up trace
// and returns the median fit's wall seconds.
func offlineFit(r *run, times []float64, budget float64) (float64, error) {
	var allocs, iters float64
	walls, err := r.phase("fit", budget, func(i, root int) error {
		c0 := readCountersIf(r.tr.on.Load())
		id := r.tr.begin("fit", "fit", "fit.Fit", root, i)
		rep, err := fit.Fit(context.Background(), times, fit.Options{
			ServiceRate: p0Mu, Workers: 1, EM: fit.EMOptions{Workers: 1},
		})
		r.tr.end(id)
		r.attempted++
		if err != nil {
			r.failed++
			return fmt.Errorf("fit: %w", err)
		}
		if r.tr.on.Load() && i == 0 {
			c1 := readCounters()
			allocs = float64(c1.mallocs - c0.mallocs)
			iters = c0.delta(c1, "hap_fit_em_iterations_total")
		}
		// Correctness: a modulated model beats Poisson, and every
		// candidate converged.
		r.check(rep.Best != "" && rep.Best != "poisson", "fit selected %q, not a modulated model", rep.Best)
		for _, c := range rep.Candidates {
			r.check(c.Error == "" && c.Diag.Converged, "fit candidate %s: converged=%v error=%q", c.Name, c.Diag.Converged, c.Error)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if r.traced {
		fits := r.tr.perCycle("fit", "fit.Fit")
		r.perLayer("fit.arrivals_per_s", float64(len(times)*len(fits))/total(fits))
		r.perLayer("fit.allocs", allocs)
		r.perLayer("fit.em_iters", iters)
	}
	return median(walls), nil
}

// offlineSolve runs E1's analytic half: Solutions 2 and 1, the M/M/1
// baseline, and the matrix-geometric exact solve at (8, 48). It returns
// the median unit's wall seconds.
func offlineSolve(r *run, m *core.Model, budget float64) (float64, error) {
	var first struct{ iters, sweeps, sigma float64 }
	walls, err := r.phase("solve", budget, func(i, root int) error {
		c0 := readCountersIf(r.tr.on.Load())
		solve := func(name string, f func() (solver.Result, error)) (solver.Result, error) {
			id := r.tr.begin("solve", "solver", name, root, i)
			defer r.tr.end(id)
			r.attempted++
			res, err := f()
			if err != nil {
				r.failed++
				return res, fmt.Errorf("%s: %w", name, err)
			}
			return res, nil
		}
		s2, err := solve("solver.Solution2", func() (solver.Result, error) { return solver.Solution2(m, nil) })
		if err != nil {
			return err
		}
		s1, err := solve("solver.Solution1", func() (solver.Result, error) { return solver.Solution1(m, nil) })
		if err != nil {
			return err
		}
		if _, err := solve("solver.Poisson", func() (solver.Result, error) { return solver.Poisson(m) }); err != nil {
			return err
		}
		qbd, err := solve("solver.Solution0MG", func() (solver.Result, error) {
			return solver.Solution0MG(m, &solver.Options{MaxUsers: qbdUsers, MaxApps: qbdApps})
		})
		if err != nil {
			return err
		}
		if r.tr.on.Load() && i == 0 {
			c1 := readCounters()
			first.iters = c0.delta(c1, "hap_solver_iterations_total")
			first.sweeps = c0.delta(c1, "hap_markov_sweeps_total")
			first.sigma = c0.delta(c1, "hap_gm1_sigma_iterations_total")
		}
		// Correctness: E1's exact delay, and E1's own Solution 1 verdict.
		r.check(fmt.Sprintf("%.4g", qbd.Delay) == "0.09311", "QBD delay at (%d, %d) is %.6g, want 0.09311", qbdUsers, qbdApps, qbd.Delay)
		r.check(math.Abs(s1.Delay-s2.Delay) <= 0.01*s2.Delay, "Solution 1 delay %.6g not within 1%% of Solution 2's %.6g", s1.Delay, s2.Delay)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if r.traced {
		r.perLayer("solver.iterations", first.iters)
		r.perLayer("markov.sweeps", first.sweeps)
		r.perLayer("gm1.sigma_iters", first.sigma)
	}
	return median(walls), nil
}
