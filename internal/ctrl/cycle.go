package ctrl

import (
	"errors"

	"hap/internal/admission"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/mmpp"
	"hap/internal/obs"
)

// verdict is what one solve→admit cycle publishes, for a stream and for
// the aggregate alike.
type verdict struct {
	meanRate float64 // of the fitted process; 0 when it has no transform
	solveOK  bool
	sigma    float64
	rho      float64
	delay    float64
	solveMsg string

	admitOK bool
	dec     decision
}

// cycleKind is what differs between a stream's solve→admit cycle and the
// aggregate's: the counters it records into and how it words the denials
// every caller shares.
type cycleKind struct {
	solves, solveErrors, allowed, denied *obs.Counter
	unstable, infeasible                 string // reasons to deny
}

// sigmaChain is a cycle's σ warm start across cycles: the σ of the last
// successful solve and the fitted mean rate of the last cycle.
type sigmaChain struct {
	warm     float64
	lastRate float64
}

// seed returns the warm σ for a solve at fitted mean rate lam. A regime
// shift invalidates the chain: a stale σ from a very different load
// would seed the next bracket expansion far from the root, so a rate
// more than 2× away from the last cycle's, in either direction, clears
// it first.
func (c *sigmaChain) seed(lam float64) float64 {
	if c.lastRate > 0 && (lam > 2*c.lastRate || lam < c.lastRate/2) {
		c.reset()
	}
	c.lastRate = lam
	return c.warm
}

// reset clears the chain, counting only a chain that held a σ.
func (c *sigmaChain) reset() {
	if c.warm != 0 {
		c.warm = 0
		obsSigmaResets.Inc()
	}
}

// solveAdmit runs one solve→admit cycle over the fitted process proc at
// service rate mu: the G/M/1 delay from proc's exact interarrival
// transform (the same reduction as Solutions 1/2) with σ warm-started
// from the chain, then admission.MaxScale's headroom against target up
// to cfg.FMax. A stream passes its fitted MMPP2 as a one-component
// superposition, the aggregate its k-stream merge. word turns a headroom
// into the caller's decision: admit, or the reason to deny.
func (c *sigmaChain) solveAdmit(proc *mmpp.MMPP, mu, target float64, cfg *Config, k *cycleKind,
	word func(headroom float64) (admit bool, reason string)) (v verdict) {
	lap, err := proc.InterarrivalLaplace()
	if err == nil {
		v.meanRate, err = proc.MeanRate()
	}
	if err != nil {
		k.solveErrors.Inc()
		v.solveMsg = err.Error()
		return v
	}
	lam := v.meanRate
	res, err := gm1.Solve(gm1.Laplace(lap), lam, mu,
		&gm1.Options{Method: cfg.Method, WarmSigma: c.seed(lam)})
	k.solves.Inc()
	if err != nil {
		k.solveErrors.Inc()
		// A failed solve must not seed the next cycle: the σ chain is
		// only as good as its last success.
		c.reset()
		v.solveMsg = err.Error()
		// Unstable fitted load is itself a decision: deny with reason.
		if errors.Is(err, haperr.ErrUnstable) {
			v.admitOK = true
			v.dec = decision{Admit: false, Target: target, Reason: k.unstable}
			k.denied.Inc()
		}
		return v
	}
	c.warm = res.Sigma
	v.solveOK = true
	v.sigma, v.rho, v.delay = res.Sigma, res.Rho, res.Delay

	// The headroom bisection scales proc's rates in place (the
	// modulator, hence its stationary law, is unchanged), so each
	// evaluation reuses the chain.
	laplaceAt := func(f float64) gm1.Laplace {
		l, err := proc.ScaleRates(f).InterarrivalLaplace()
		if err != nil {
			return func(float64) float64 { return 1 } // rejected by the solver as trivial
		}
		return gm1.Laplace(l)
	}
	rateAt := func(f float64) float64 { return f * lam }
	scale, _, err := admission.MaxScale(laplaceAt, rateAt, mu, target, cfg.FMax)
	v.admitOK = true
	switch {
	case errors.Is(err, admission.ErrInfeasible):
		v.dec = decision{Admit: false, Target: target, Delay: res.Delay, Reason: k.infeasible}
	case err != nil:
		v.admitOK = false
		v.solveMsg = err.Error()
	default:
		admit, reason := word(scale)
		v.dec = decision{Admit: admit, Headroom: scale, Delay: res.Delay, Target: target, Reason: reason}
	}
	if v.admitOK {
		if v.dec.Admit {
			k.allowed.Inc()
		} else {
			k.denied.Inc()
		}
	}
	return v
}
