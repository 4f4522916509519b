package ctrl

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"hap/internal/admission"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/mmpp"
)

// aggPublished is the aggregate state visible to the HTTP layer,
// replaced wholesale under the mutex by recomputeAggregate.
type aggPublished struct {
	ok      bool // at least one stream has a fit
	at      time.Time
	streams []string // contributing stream IDs, in ID order
	denied  []string // contributing streams whose own decision denies
	states  int      // product modulating-chain size (2^streams)

	meanRate float64
	solveOK  bool
	sigma    float64
	rho      float64
	delay    float64
	solveMsg string

	admitOK bool
	dec     decision
}

// aggregate is the controller-level fit/solve/admit cycle over the
// superposition of the per-stream fitted processes. The paper's
// admission story is about the merged workload: HAP itself is a
// superposition of per-user sources, and the admissible workload is a
// property of the merged arrival process, not any single stream. The
// merge is exact — Kronecker-sum superposition of the fitted MMPP2s
// (mmpp.SuperposeMMPP2) with the k-state interarrival transform solved
// through internal/linalg — so no re-fit of the merged stream is
// needed. recomputeAggregate runs on the daemon's tick goroutine only;
// warmSigma/lastRate are its private chain.
type aggregate struct {
	warmSigma float64
	lastRate  float64

	mu  sync.Mutex
	pub aggPublished
}

func (a *aggregate) snapshot() aggPublished {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pub
}

// recomputeAggregate rebuilds the superposed process from the latest
// per-stream fits and re-runs the solve/admit cycle on it. The merged
// decision is conservative: admit only if the aggregate headroom and
// every contributing stream's own decision admit.
func (d *Daemon) recomputeAggregate(now time.Time) {
	var models []mmpp.MMPP2
	pub := aggPublished{at: now}
	for _, s := range d.streams {
		sp := s.snapshot()
		if !sp.hasFit {
			continue
		}
		models = append(models, mmpp.MMPP2{
			R0: sp.fit.R0, R1: sp.fit.R1, Q01: sp.fit.Q01, Q10: sp.fit.Q10,
		})
		pub.streams = append(pub.streams, s.ID)
		if !sp.admitOK || !sp.dec.Admit {
			pub.denied = append(pub.denied, s.ID)
		}
	}
	obsAggStreams.Set(int64(len(pub.streams)))
	if len(models) == 0 {
		d.agg.publish(pub)
		return
	}
	pub.ok = true
	pub.states = 1 << len(models)
	obsAggStates.Set(int64(pub.states))
	if pub.states > d.cfg.MaxAggregateStates {
		pub.solveMsg = fmt.Sprintf("aggregate chain needs %d states, cap is %d — raise MaxAggregateStates or fit the merged stream",
			pub.states, d.cfg.MaxAggregateStates)
		obsAggSolveErrors.Inc()
		d.agg.publish(pub)
		return
	}
	d.solveAggregate(models, &pub)
	d.agg.publish(pub)
}

func (a *aggregate) publish(pub aggPublished) {
	a.mu.Lock()
	a.pub = pub
	a.mu.Unlock()
}

// solveAggregate is the aggregate twin of Stream.solveAndAdmit: exact
// LST of the superposed fitted process, warm-started σ solve at the
// global service rate, headroom bisection, conservative merge with the
// per-stream decisions.
func (d *Daemon) solveAggregate(models []mmpp.MMPP2, pub *aggPublished) {
	sup, err := mmpp.SuperposeMMPP2(models...)
	if err != nil {
		obsAggSolveErrors.Inc()
		pub.solveMsg = err.Error()
		return
	}
	lap, err := sup.InterarrivalLaplace()
	if err != nil {
		obsAggSolveErrors.Inc()
		pub.solveMsg = err.Error()
		return
	}
	lam, err := sup.MeanRate()
	if err != nil {
		obsAggSolveErrors.Inc()
		pub.solveMsg = err.Error()
		return
	}
	pub.meanRate = lam
	// Same σ-chain hygiene as the per-stream path: clear on large
	// aggregate-rate jumps and on solve failure.
	if d.agg.warmSigma != 0 && d.agg.lastRate > 0 &&
		(lam > 2*d.agg.lastRate || lam < d.agg.lastRate/2) {
		d.agg.warmSigma = 0
		obsSigmaResets.Inc()
	}
	d.agg.lastRate = lam
	res, err := gm1.Solve(gm1.Laplace(lap), lam, d.cfg.ServiceRate,
		&gm1.Options{Method: d.cfg.Method, WarmSigma: d.agg.warmSigma})
	obsAggSolves.Inc()
	if err != nil {
		obsAggSolveErrors.Inc()
		if d.agg.warmSigma != 0 {
			d.agg.warmSigma = 0
			obsSigmaResets.Inc()
		}
		pub.solveMsg = err.Error()
		if errors.Is(err, haperr.ErrUnstable) {
			pub.admitOK = true
			pub.dec = decision{Admit: false, Target: d.cfg.TargetDelay,
				Reason: "aggregate fitted load unstable at the configured service rate"}
			obsAggDenied.Inc()
		}
		return
	}
	d.agg.warmSigma = res.Sigma
	pub.solveOK = true
	pub.sigma, pub.rho, pub.delay = res.Sigma, res.Rho, res.Delay

	// The headroom bisection scales the merged process's rates in place
	// (the modulator — hence its stationary law — is unchanged), so
	// each evaluation reuses the product chain.
	laplaceAt := func(f float64) gm1.Laplace {
		l, err := sup.ScaleRates(f).InterarrivalLaplace()
		if err != nil {
			return func(float64) float64 { return 1 } // rejected by the solver as trivial
		}
		return gm1.Laplace(l)
	}
	rateAt := func(f float64) float64 { return f * lam }
	scale, _, err := admission.MaxScale(laplaceAt, rateAt,
		d.cfg.ServiceRate, d.cfg.TargetDelay, d.cfg.FMax, 0)
	pub.admitOK = true
	switch {
	case errors.Is(err, admission.ErrInfeasible):
		pub.dec = decision{Admit: false, Target: d.cfg.TargetDelay,
			Delay: res.Delay, Reason: "target delay infeasible for the superposed fitted process"}
	case err != nil:
		pub.admitOK = false
		pub.solveMsg = err.Error()
	default:
		pub.dec = decision{
			Admit:    scale >= 1 && len(pub.denied) == 0,
			Headroom: scale,
			Delay:    res.Delay,
			Target:   d.cfg.TargetDelay,
		}
		switch {
		case scale < 1 && len(pub.denied) > 0:
			pub.dec.Reason = "aggregate load exceeds the admissible workload; streams denying: " +
				strings.Join(pub.denied, ",")
		case scale < 1:
			pub.dec.Reason = "aggregate load exceeds the admissible workload for the delay target"
		case len(pub.denied) > 0:
			pub.dec.Reason = "aggregate headroom suffices but per-stream targets deny: " +
				strings.Join(pub.denied, ",")
		}
	}
	if pub.admitOK {
		if pub.dec.Admit {
			obsAggAllowed.Inc()
		} else {
			obsAggDenied.Inc()
		}
	}
}
