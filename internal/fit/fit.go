// Package fit closes the generate→observe→fit loop: given an observed
// packet-arrival trace (timestamps from a CSV file, a live UDP sink, or a
// simulation), it recovers the parameters of the traffic models this
// library can generate and solve — Poisson, the 2-level HAP / ON-OFF
// model, the paper's symmetric 3-level HAP, and a 2-state MMPP fallback.
//
// The estimators are the paper's own closed forms run backwards:
//
//   - the mean-rate equation λ̄ = ν·(l·a')·(m·λ”) (Equations 4/5) pins the
//     product of the level loads to the observed rate;
//   - the index-of-dispersion-for-counts curve of a doubly stochastic
//     Poisson process, IDC(w) = 1 + (2/λ̄w)·Σⱼ cⱼ·K(aⱼ,w) with
//     K = core.IDCKernel, identifies the per-level modulation amplitudes
//     cⱼ and relaxation rates aⱼ (one exponential for ON-OFF, the paper's
//     two-exponential cascade — core.Model.NewIDC — for the 3-level HAP);
//   - inverting core's exact covariance coefficients (those behind
//     core.Model.NewIDC) turns (λ̄, c₁, a₁ = μ', c₂, a₂ = μ) back into
//     (λ, μ, λ', μ', λ”).
//
// What a stationary arrival trace cannot identify is documented rather
// than guessed at: the message service rate μ” (no departures are
// observed; Options.ServiceRate supplies it), and the (l, fanout) tree
// shape, which by Equation 5 affects the law only through the leaf count
// (Options.AppTypes/Fanout distribute the recovered products).
//
// A Baum–Welch EM fitter for the 2-state MMPP (FitMMPP2EM) is the
// general-purpose fallback when no hierarchical structure fits, and a
// BIC/AIC model-selection report (Fit) ranks all candidates against one
// trace — the comparison the 2-state-MMPP literature (Heffes–Lucantoni)
// loses to HAP on hierarchical traffic.
package fit

import (
	"math"
	"time"

	"hap/internal/core"
	"hap/internal/haperr"
)

// Options tunes the fitters. The zero value is usable.
type Options struct {
	// ServiceRate is the message service rate μ” assigned to fitted
	// queueing models. A stationary arrival trace carries no information
	// about service, so this is declared, not estimated; 0 defaults to
	// 2·λ̄ (utilisation 0.5).
	ServiceRate float64
	// AppTypes (l) and Fanout (m) fix the symmetric HAP tree shape over
	// which the recovered level products are distributed. 0 defaults to 1.
	// Equation 5: any split with the same leaf count yields the same law.
	AppTypes, Fanout int
	// EM tunes the Baum-Welch MMPP2 fitter.
	EM EMOptions
	// Models restricts the candidate set of Fit ("poisson", "onoff",
	// "hap", "mmpp2"); empty fits all four.
	Models []string
	// Workers bounds the goroutines Fit spreads its model candidates over
	// (<= 0 selects GOMAXPROCS, 1 runs inline). Candidate results depend
	// only on the trace and per-model options, so the report is identical
	// at any worker count.
	Workers int
}

// minIDCBins is the minimum completed bins behind an IDC point for it to
// enter the moment fitters' curve fit.
const minIDCBins = 8

func (o Options) serviceRate(rate float64) float64 {
	if o.ServiceRate > 0 {
		return o.ServiceRate
	}
	return 2 * rate
}

func (o Options) shape() (l, fanout int) {
	l, fanout = o.AppTypes, o.Fanout
	if l < 1 {
		l = 1
	}
	if fanout < 1 {
		fanout = 1
	}
	return l, fanout
}

// PoissonFit is a fitted Poisson process.
type PoissonFit struct {
	Rate float64
	Diag haperr.Diag
}

// FitPoisson moment-matches a Poisson process: λ̂ is the empirical rate.
func FitPoisson(ts *TraceStats) (PoissonFit, error) {
	start := time.Now()
	r := ts.Rate()
	if !(r > 0) {
		err := haperr.Badf("fit: trace has no measurable rate")
		recordFitErr("poisson", start, err)
		return PoissonFit{}, err
	}
	f := PoissonFit{Rate: r, Diag: haperr.Diag{Converged: true}}
	recordFit("poisson", start, f.Diag)
	return f, nil
}

// OnOffFit is a fitted 2-level HAP / ON-OFF model.
type OnOffFit struct {
	Model *core.TwoLevel
	// Nu is the recovered mean number of active calls λ/μ.
	Nu   float64
	Diag haperr.Diag
}

// FitOnOff moment-matches the 2-level HAP: the modulated rate is R = γ·X
// with X an M/M/∞(λ, μ) call population, so Cov_R(u) = γ²ν·e^{−μu} and
//
//	IDC(w) = 1 + (2γ²ν/λ̄)·K(μ,w)/w,  λ̄ = νγ.
//
// A one-exponential least-squares fit of the empirical IDC curve yields
// the amplitude c = γ²ν and the knee μ; then γ = c/λ̄, ν = λ̄/γ, λ = νμ.
// The message service rate is Options.ServiceRate (not identifiable).
func FitOnOff(ts *TraceStats, opt Options) (OnOffFit, error) {
	start := time.Now()
	rate := ts.Rate()
	c, a, diag, err := fitExpCovariance(ts.IDCPoints(minIDCBins), rate, 1)
	if err != nil {
		recordFitErr("onoff", start, err)
		return OnOffFit{}, err
	}
	gamma := c[0] / rate
	nu := rate / gamma
	mu := a[0]
	tl := &core.TwoLevel{
		Lambda:    nu * mu,
		Mu:        mu,
		MsgLambda: gamma,
		MsgMu:     opt.serviceRate(rate),
	}
	if err := tl.Validate(); err != nil {
		err = haperr.Badf("fit: ON-OFF inversion produced an invalid model (%v)", err)
		recordFitErr("onoff", start, err)
		return OnOffFit{}, err
	}
	f := OnOffFit{Model: tl, Nu: nu, Diag: diag}
	recordFit("onoff", start, diag)
	return f, nil
}

// HAPFit is a fitted symmetric 3-level HAP.
type HAPFit struct {
	Model *core.Model
	Diag  haperr.Diag
}

// FitSymmetricHAP moment-matches the paper's symmetric HAP by inverting
// the exact two-exponential rate covariance behind core.Model.NewIDC:
//
//	Cov_R(u) = c₁·e^{−μ'u} + c₂·e^{−μu}
//	c₂/λ̄ = P·L·μ'²/((μ+μ')(μ'−μ))        (user-driven term)
//	c₁/λ̄ = P − (P·L)·μ'μ/((μ+μ')(μ'−μ))  (application-driven term)
//	λ̄    = ν·L·P                          (Equation 5)
//
// with L = l·λ'/μ' the application load per user and P = m·λ” the message
// rate per active application. A two-exponential least-squares fit of the
// empirical IDC curve gives (c₁, μ', c₂, μ); the three equations above
// then recover (ν, L, P) in closed form, and Options.AppTypes/Fanout
// distribute L and P over the tree (Equation 5 makes every split with the
// same leaf count equivalent).
func FitSymmetricHAP(ts *TraceStats, opt Options) (HAPFit, error) {
	start := time.Now()
	rate := ts.Rate()
	c, a, diag, err := fitExpCovariance(ts.IDCPoints(minIDCBins), rate, 2)
	if err != nil {
		recordFitErr("hap", start, err)
		return HAPFit{}, err
	}
	// Faster relaxation is the application level (condition 1a/1b of the
	// paper's Section 4.1 requires μ' ≫ μ).
	muApp, mu := a[0], a[1]
	c1, c2 := c[0], c[1]
	if muApp < mu {
		muApp, mu = mu, muApp
		c1, c2 = c2, c1
	}
	denom := (mu + muApp) * (muApp - mu)
	if denom <= 0 {
		err := haperr.Badf("fit: degenerate relaxation rates μ'=%g μ=%g", muApp, mu)
		recordFitErr("hap", start, err)
		return HAPFit{}, err
	}
	lp := (c2 / rate) * denom / (muApp * muApp) // L·P
	p := c1/rate + lp*muApp*mu/denom            // P = m·λ”
	if !(lp > 0) || !(p > 0) || lp <= 0 {
		err := haperr.Badf("fit: IDC inversion left non-positive level products (LP=%g P=%g)", lp, p)
		recordFitErr("hap", start, err)
		return HAPFit{}, err
	}
	l, fanout := opt.shape()
	load := lp / p    // L = l·λ'/μ'
	nu := rate / lp   // ν = λ̄/(L·P)
	lambda := nu * mu // user arrival rate
	lambdaApp := load * muApp / float64(l)
	lambdaMsg := p / float64(fanout)
	m := core.NewSymmetric(lambda, mu, lambdaApp, muApp, lambdaMsg, opt.serviceRate(rate), l, fanout)
	m.Name = "fitted-HAP"
	if err := m.Validate(); err != nil {
		err = haperr.Badf("fit: HAP inversion produced an invalid model (%v)", err)
		recordFitErr("hap", start, err)
		return HAPFit{}, err
	}
	f := HAPFit{Model: m, Diag: diag}
	recordFit("hap", start, diag)
	return f, nil
}

// fitExpCovariance least-squares fits the empirical IDC curve with a
// k-exponential (k = 1 or 2) covariance model
//
//	IDC(w) − 1 = Σⱼ cⱼ·bⱼ(w),  bⱼ(w) = 2·K(aⱼ,w)/(λ̄·w)
//
// by geometric grid search over the relaxation rates aⱼ (the model is
// linear in the amplitudes cⱼ, solved in closed form per grid point),
// followed by golden-section refinement. Points are weighted by their
// completed-bin count. Returns amplitudes, rates and a Diag with the
// weighted RMS residual.
func fitExpCovariance(pts []IDCPoint, rate float64, k int) (c, a []float64, diag haperr.Diag, err error) {
	if !(rate > 0) {
		return nil, nil, diag, haperr.Badf("fit: trace has no measurable rate")
	}
	need := 3 * k
	if len(pts) < need {
		return nil, nil, diag, haperr.Badf("fit: %d IDC points but a %d-exponential fit needs at least %d (trace too short)", len(pts), k, need)
	}
	// Require an actual dispersion signal; a flat IDC≈1 curve is Poisson.
	maxD := 0.0
	for _, p := range pts {
		if p.IDC > maxD {
			maxD = p.IDC
		}
	}
	if maxD < 1.05 {
		return nil, nil, diag, haperr.Badf("fit: IDC stays at %.3g (no burstiness above Poisson to invert)", maxD)
	}
	wMin, wMax := pts[0].Window, pts[len(pts)-1].Window
	// Grid of candidate relaxation rates spanning well past the window
	// ladder on both sides.
	const gridN = 48
	lo, hi := 0.05/wMax, 4/wMin
	grid := make([]float64, gridN)
	for i := range grid {
		grid[i] = lo * math.Pow(hi/lo, float64(i)/float64(gridN-1))
	}
	evals := 0
	best := math.Inf(1)
	bestA := make([]float64, k)
	bestC := make([]float64, k)
	tryRates := func(as []float64) {
		evals++
		cs, sse, ok := solveAmplitudes(pts, rate, as)
		if ok && sse < best {
			best = sse
			copy(bestA, as)
			copy(bestC, cs)
		}
	}
	if k == 1 {
		for _, a0 := range grid {
			tryRates([]float64{a0})
		}
	} else {
		for i, a0 := range grid {
			for _, a1 := range grid[i+1:] {
				tryRates([]float64{a1, a0}) // a1 > a0: fast rate first
			}
		}
	}
	if math.IsInf(best, 1) {
		return nil, nil, diag, haperr.Badf("fit: no admissible %d-exponential covariance fit", k)
	}
	// Coordinate-wise golden-section refinement around the grid winner.
	step := math.Pow(hi/lo, 1/float64(gridN-1))
	for round := 0; round < 3; round++ {
		for j := 0; j < k; j++ {
			lo, hi := bestA[j]/step, bestA[j]*step
			for it := 0; it < 24; it++ {
				m1 := lo * math.Pow(hi/lo, 1.0/3)
				m2 := lo * math.Pow(hi/lo, 2.0/3)
				trial := append([]float64(nil), bestA...)
				trial[j] = m1
				_, s1, ok1 := solveAmplitudes(pts, rate, trial)
				trial[j] = m2
				_, s2, ok2 := solveAmplitudes(pts, rate, trial)
				evals += 2
				if !ok1 {
					s1 = math.Inf(1)
				}
				if !ok2 {
					s2 = math.Inf(1)
				}
				if s1 < s2 {
					hi = m2
				} else {
					lo = m1
				}
			}
			trial := append([]float64(nil), bestA...)
			trial[j] = math.Sqrt(lo * hi)
			if cs, sse, ok := solveAmplitudes(pts, rate, trial); ok && sse < best {
				best = sse
				bestA[j] = trial[j]
				copy(bestC, cs)
			}
		}
	}
	var wsum float64
	binsEff := effectiveBins(pts)
	for i, p := range pts {
		wsum += binsEff[i] / math.Max(p.IDC*p.IDC, 1)
	}
	diag = haperr.Diag{
		Iterations: evals,
		Residual:   math.Sqrt(best / wsum),
		Converged:  true,
	}
	return bestC, bestA, diag, nil
}

// solveAmplitudes solves the weighted linear least squares for the
// amplitudes given fixed relaxation rates, rejecting non-positive
// solutions (a covariance amplitude is a variance share).
func solveAmplitudes(pts []IDCPoint, rate float64, as []float64) (cs []float64, sse float64, ok bool) {
	k := len(as)
	// Normal equations over the k basis functions, weighted by the inverse
	// variance of each IDC estimate, var(Î)/IDC² ≈ 2/B_eff. B_eff is NOT
	// the raw bin count: for long-memory traffic adjacent bins stay
	// correlated over the slowest relaxation time, so every window shares
	// roughly the same number of independent stretches as the largest one.
	// Capping at a small multiple of the largest window's count keeps the
	// short windows (millions of raw bins, but the same handful of slow
	// epochs) from drowning the knee region in their estimator bias.
	binsEff := effectiveBins(pts)
	var ata [4]float64 // row-major k×k, k <= 2
	var aty [2]float64
	b := make([]float64, k)
	for i, p := range pts {
		y := p.IDC - 1
		wgt := binsEff[i] / math.Max(p.IDC*p.IDC, 1)
		for j := 0; j < k; j++ {
			b[j] = 2 * core.IDCKernel(as[j], p.Window) / (rate * p.Window)
		}
		for j := 0; j < k; j++ {
			aty[j] += wgt * b[j] * y
			for i := 0; i < k; i++ {
				ata[j*k+i] += wgt * b[j] * b[i]
			}
		}
	}
	cs = make([]float64, k)
	if k == 1 {
		if ata[0] <= 0 {
			return nil, 0, false
		}
		cs[0] = aty[0] / ata[0]
	} else {
		det := ata[0]*ata[3] - ata[1]*ata[2]
		if math.Abs(det) < 1e-300 {
			return nil, 0, false
		}
		cs[0] = (aty[0]*ata[3] - aty[1]*ata[1]) / det
		cs[1] = (ata[0]*aty[1] - ata[2]*aty[0]) / det
	}
	for _, cv := range cs {
		if !(cv > 0) || math.IsInf(cv, 0) {
			return nil, 0, false
		}
	}
	for i, p := range pts {
		pred := 0.0
		for j := 0; j < k; j++ {
			pred += cs[j] * 2 * core.IDCKernel(as[j], p.Window) / (rate * p.Window)
		}
		d := (p.IDC - 1) - pred
		sse += binsEff[i] / math.Max(p.IDC*p.IDC, 1) * d * d
	}
	return cs, sse, true
}

// effectiveBins caps each IDC point's bin count at a small multiple of
// the largest window's, the shared independent-epoch budget.
func effectiveBins(pts []IDCPoint) []float64 {
	cap := math.Inf(1)
	if n := len(pts); n > 0 {
		cap = 32 * float64(pts[n-1].Bins)
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = math.Min(float64(p.Bins), cap)
	}
	return out
}
