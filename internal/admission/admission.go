// Package admission turns the paper's Section 6–7 discussion into usable
// control machinery: HAP "can serve as the computational base to estimate
// the admissible workload for a given bandwidth (admission control), or
// the required bandwidth for a given workload (bandwidth allocation)".
//
// All searches run on Solution 2 (closed form) because that is the paper's
// fast-enough-for-control computation; its accuracy conditions (utilisation
// under ~30%) are the regime the paper recommends operating in anyway.
package admission

import (
	"errors"
	"math"
	"sort"

	"hap/internal/core"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/solver"
)

// ErrInfeasible reports that no setting meets the target.
var ErrInfeasible = errors.New("admission: target delay infeasible")

const (
	// probe is the tiny load every headroom search first proves feasible.
	probe = 1e-6
	// scaleTol is the headroom bisection's stopping width on the scale.
	scaleTol = 1e-4
	// workloadCeiling is MaxWorkload's largest user-rate multiplier.
	workloadCeiling = 4
	// bandwidthTol is RequiredBandwidth's stopping width relative to μ”.
	bandwidthTol = 1e-6
	// boundsCeiling is BoundsForDelay's largest user cap.
	boundsCeiling = 400
)

// MaxWorkload finds the largest user arrival-rate multiplier f ∈ (0, 4]
// such that the scaled model's Solution-2 mean delay stays within
// targetDelay. It returns the multiplier and the delay at that setting.
// The returned model rate is f·λ. Each successful evaluation's σ warm
// starts the next (the multiplier moves σ smoothly), so the search does
// a fraction of the transform evaluations a cold sweep would.
func MaxWorkload(m *core.Model, targetDelay float64) (f float64, delay float64, err error) {
	var opts solver.Options
	return maxFeasible(func(f float64) (float64, bool) {
		res, err := solver.Solution2(m.Scale(core.LevelUser, f), &opts)
		if err != nil {
			return 0, false // unstable or invalid → over target
		}
		opts.WarmSigma = res.Sigma
		return res.Delay, true
	}, targetDelay, workloadCeiling)
}

// MaxScale is MaxWorkload for fitted arrival processes: given the
// interarrival Laplace transform and mean rate of the process at every
// arrival-scale multiplier f (e.g. an MMPP fitted to a live stream with
// its state rates scaled by f), it finds the largest f ∈ (0, fMax] whose
// G/M/1 delay at service rate mu stays within targetDelay. Headroom
// f ≥ 1 means the observed traffic itself meets the target — the control
// plane's admit condition. Successive evaluations chain the σ warm start,
// so a full search costs little more than one cold solve.
func MaxScale(laplaceAt func(scale float64) gm1.Laplace, rateAt func(scale float64) float64,
	mu, targetDelay, fMax float64) (f float64, delay float64, err error) {
	if !(mu > 0) {
		return 0, 0, haperr.Badf("admission: service rate must be positive (got %g)", mu)
	}
	var opts gm1.Options
	return maxFeasible(func(f float64) (float64, bool) {
		lam := rateAt(f)
		if !(lam > 0) || lam >= mu {
			return 0, false
		}
		res, err := gm1.Solve(laplaceAt(f), lam, mu, &opts)
		if err != nil {
			return 0, false
		}
		opts.WarmSigma = res.Sigma
		return res.Delay, true
	}, targetDelay, fMax)
}

// maxFeasible is the headroom bisection every search shares: the largest
// f ∈ (0, fMax], to within scaleTol, whose delayAt(f) succeeds and meets
// target. The delay is increasing in f. The tiny-load probe must meet the
// target, and it becomes the feasible lower bound: if every interior
// evaluation fails (the solver can be unstable across the whole band),
// the search still returns this proven operating point, not
// ErrInfeasible.
func maxFeasible(delayAt func(f float64) (float64, bool), target, fMax float64) (f float64, delay float64, err error) {
	if !(target > 0) {
		return 0, 0, haperr.Badf("admission: target delay must be positive (got %g)", target)
	}
	if !(fMax > 0) || math.IsInf(fMax, 1) {
		return 0, 0, haperr.Badf("admission: search ceiling must be positive and finite (got %g)", fMax)
	}
	d0, ok := delayAt(probe)
	if !ok || d0 > target {
		return 0, 0, ErrInfeasible
	}
	if d, ok := delayAt(fMax); ok && d <= target {
		return fMax, d, nil
	}
	lo, hi, delay := probe, fMax, d0
	for hi-lo > scaleTol {
		mid := (lo + hi) / 2
		if d, ok := delayAt(mid); ok && d <= target {
			lo, delay = mid, d
		} else {
			hi = mid
		}
	}
	return lo, delay, nil
}

// RequiredBandwidth finds the smallest message service rate μ” whose
// Solution-2 delay meets targetDelay, by bisection — the paper's
// bandwidth-allocation direction. The model's own μ” is ignored.
func RequiredBandwidth(m *core.Model, targetDelay float64) (mu float64, err error) {
	if !(targetDelay > 0) {
		return 0, haperr.Badf("admission: target delay must be positive (got %g)", targetDelay)
	}
	lam := m.MeanRate()
	lo := lam * (1 + 1e-9) // stability floor
	hi := lam + 4/targetDelay + 10*lam
	withMu := func(mu float64) (float64, bool) {
		scaled := m.Clone()
		for i := range scaled.Apps {
			for j := range scaled.Apps[i].Messages {
				scaled.Apps[i].Messages[j].Mu = mu
			}
		}
		res, err := solver.Solution2(scaled, nil)
		if err != nil {
			return 0, false
		}
		return res.Delay, true
	}
	if d, ok := withMu(hi); !ok || d > targetDelay {
		return 0, ErrInfeasible
	}
	for hi-lo > bandwidthTol*hi {
		mid := (lo + hi) / 2
		if d, ok := withMu(mid); ok && d <= targetDelay {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// BoundsForDelay searches the largest symmetric user cap up to 400 (with
// the app cap tied to capUsers·appsPerUser) whose bounded Solution 2 meets
// the target — Figure 20's admission knob. appsPerUser defaults to the
// model's mean per-user application load. A cap whose solve fails (an
// unstable queue) misses every target.
func BoundsForDelay(m *core.Model, targetDelay float64, appsPerUser float64) (maxUsers, maxApps int, err error) {
	if appsPerUser <= 0 {
		appsPerUser = m.MeanApps() / m.MeanUsers()
	}
	apps := func(users int) int { return max(1, int(float64(users)*appsPerUser+0.5)) }
	meets := func(users int) bool {
		res, err := solver.Solution2Bounded(m, users, apps(users), nil)
		return err == nil && res.Delay <= targetDelay
	}
	if meets(boundsCeiling) {
		return boundsCeiling, apps(boundsCeiling), nil
	}
	// The bounded delay rises with the cap, so caps 1..n meet the target
	// and the rest miss it.
	n := sort.Search(boundsCeiling-1, func(i int) bool { return !meets(i + 1) })
	if n == 0 {
		return 0, 0, ErrInfeasible
	}
	return n, apps(n), nil
}
