package ctrl

import (
	"fmt"
	"strings"
	"sync"
	"time"

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

	verdict
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
// sigma is its private chain.
type aggregate struct {
	sigma sigmaChain

	mu  sync.Mutex
	pub aggPublished
}

func (a *aggregate) snapshot() aggPublished {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pub
}

// aggCycle is the aggregate's side of the solve→admit cycle.
var aggCycle = cycleKind{
	solves: obsAggSolves, solveErrors: obsAggSolveErrors, allowed: obsAggAllowed, denied: obsAggDenied,
	unstable:   "aggregate fitted load unstable at the configured service rate",
	infeasible: "target delay infeasible for the superposed fitted process",
}

// recomputeAggregate rebuilds the superposed process from the latest
// per-stream fits and runs a stream's solve→admit cycle on it, at the
// global service rate and target. The merged decision is conservative:
// admit only if the aggregate headroom and every contributing stream's
// own decision admit.
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
	sup, err := mmpp.SuperposeMMPP2(models...)
	if err != nil {
		obsAggSolveErrors.Inc()
		pub.solveMsg = err.Error()
	} else {
		pub.verdict = d.agg.sigma.solveAdmit(sup, d.cfg.ServiceRate, d.cfg.TargetDelay,
			&d.cfg, &aggCycle, mergeDenials(pub.denied))
	}
	d.agg.publish(pub)
}

// mergeDenials words the aggregate decision over the merged headroom
// and the contributing streams that deny on their own.
func mergeDenials(denied []string) func(headroom float64) (bool, string) {
	return func(headroom float64) (bool, string) {
		switch {
		case headroom < 1 && len(denied) > 0:
			return false, "aggregate load exceeds the admissible workload; streams denying: " +
				strings.Join(denied, ",")
		case headroom < 1:
			return false, "aggregate load exceeds the admissible workload for the delay target"
		case len(denied) > 0:
			return false, "aggregate headroom suffices but per-stream targets deny: " +
				strings.Join(denied, ",")
		}
		return true, ""
	}
}

func (a *aggregate) publish(pub aggPublished) {
	a.mu.Lock()
	a.pub = pub
	a.mu.Unlock()
}
