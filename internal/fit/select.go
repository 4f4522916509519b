package fit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"hap/internal/haperr"
	"hap/internal/par"
)

// Candidate is one fitted model inside a selection report.
type Candidate struct {
	// Name is the model class: "poisson", "onoff", "hap", "mmpp2".
	Name string `json:"name"`
	// K is the number of free parameters the fit estimated (declared
	// parameters such as the service rate are excluded).
	K int `json:"k"`
	// Rate and C2 are the fitted model's implied arrival rate and
	// interarrival squared coefficient of variation — compare against the
	// trace Summary's empirical values.
	Rate float64 `json:"rate"`
	C2   float64 `json:"c2"`
	// LogLik, AIC and BIC score the fit on a shared interarrival
	// subsample; smaller AIC/BIC is better. The renewal models score the
	// interarrivals as independent draws from their stationary law, the
	// MMPP2 as a hidden-Markov sequence — so on strongly correlated
	// traces mmpp2 holds a structural likelihood advantage the closed
	// forms cannot, a known asymmetry of this comparison.
	LogLik float64 `json:"loglik"`
	AIC    float64 `json:"aic"`
	BIC    float64 `json:"bic"`

	Diag haperr.Diag `json:"diag"`
	// Error is non-empty when this candidate failed to fit; the numeric
	// scores are then meaningless.
	Error string `json:"error,omitempty"`

	// Exactly one of the following is non-nil for a successful fit.
	Poisson *PoissonFit `json:"poisson,omitempty"`
	OnOff   *OnOffFit   `json:"onoff,omitempty"`
	HAP     *HAPFit     `json:"hap,omitempty"`
	MMPP2   *MMPP2Fit   `json:"mmpp2,omitempty"`
}

// Report is a full model-selection run over one trace.
type Report struct {
	// Trace is the observational summary the fits consumed.
	Trace Summary `json:"trace"`
	// Candidates holds every attempted model, ranked by BIC (failed fits
	// last, in attempt order).
	Candidates []Candidate `json:"candidates"`
	// Best names the BIC-minimal successful candidate ("" if every model
	// failed).
	Best string `json:"best"`
}

// BestCandidate returns the winning candidate (nil if every model failed).
func (r *Report) BestCandidate() *Candidate {
	for i := range r.Candidates {
		if r.Candidates[i].Name == r.Best && r.Candidates[i].Error == "" {
			return &r.Candidates[i]
		}
	}
	return nil
}

// AllModels is the default candidate set of Fit, in attempt order.
var AllModels = []string{"poisson", "onoff", "hap", "mmpp2"}

// Fit runs the full estimation pipeline on arrival timestamps: build
// TraceStats, fit every requested model class, score each on a shared
// interarrival subsample (log-likelihood, AIC, BIC), and rank by BIC.
// BIC's stiffer parameter penalty is what keeps a 4-parameter MMPP2 from
// beating plain Poisson on genuinely Poisson traffic, which makes the
// selection deterministic enough to gate in CI.
//
// Individual model failures (for example "no burstiness to invert" on a
// Poisson trace) are reported per candidate, not returned: the Report is
// the deliverable. Fit itself errors only when the trace is unusable or
// the context is done.
func Fit(ctx context.Context, times []float64, opt Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ts, err := Analyze(times, TraceConfig{})
	if err != nil {
		return nil, err
	}
	recordTrace(ts)

	models := opt.Models
	if len(models) == 0 {
		models = AllModels
	}
	// Shared scoring subsample: every candidate is scored on the same
	// interarrival sequence (strided like the EM input) so the AIC/BIC
	// columns are comparable.
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	sample, err := interarrivals(sorted, opt.EM.maxSamples())
	if err != nil {
		return nil, err
	}

	rep := &Report{Trace: ts.Summary()}
	// Candidates are independent, so they fan out over par with the usual
	// determinism contract: candidate i depends only on (trace, models[i],
	// options), so the report is bit-identical at any Workers count. A
	// caller's EM scratch is not forwarded: candidates may run
	// concurrently, and each EM fit draws its own from the pool.
	cands := par.Map(ctx, len(models), opt.Workers, func(i int) Candidate {
		copt := opt
		copt.EM.Scratch = nil
		return fitCandidate(ctx, models[i], ts, sorted, sample, copt)
	})
	for i, cand := range cands {
		if cand.Name == "" {
			// par.Map skipped this slot: the context was cancelled before
			// the candidate started.
			return rep, fmt.Errorf("fit: model selection interrupted before %q: %w", models[i], ctx.Err())
		}
		rep.Candidates = append(rep.Candidates, cand)
	}

	// Rank: successful fits by BIC, failures last in attempt order.
	sort.SliceStable(rep.Candidates, func(i, j int) bool {
		ci, cj := rep.Candidates[i], rep.Candidates[j]
		if (ci.Error == "") != (cj.Error == "") {
			return ci.Error == ""
		}
		if ci.Error != "" {
			return false
		}
		return ci.BIC < cj.BIC
	})
	if len(rep.Candidates) > 0 && rep.Candidates[0].Error == "" {
		rep.Best = rep.Candidates[0].Name
	}
	return rep, nil
}

// fitCandidate fits and scores one model class.
func fitCandidate(ctx context.Context, name string, ts *TraceStats, sorted, sample []float64, opt Options) Candidate {
	cand := Candidate{Name: name}
	switch name {
	case "poisson":
		cand.K = 1
		f, err := FitPoisson(ts)
		if err != nil {
			cand.Error = err.Error()
			return cand
		}
		cand.Poisson = &f
		cand.Diag = f.Diag
		cand.Rate = f.Rate
		cand.C2 = 1
		cand.LogLik = poissonLogLik(f.Rate, sample)
	case "onoff":
		cand.K = 3 // λ, μ, γ — MsgMu is declared via Options, not estimated
		f, err := FitOnOff(ts, opt)
		if err != nil {
			cand.Error = err.Error()
			return cand
		}
		cand.OnOff = &f
		cand.Diag = f.Diag
		cand.Rate = f.Model.MeanRate()
		cand.C2 = f.Model.SCV()
		cand.LogLik = renewalLogLik(f.Model.PDF, sample)
	case "hap":
		cand.K = 5 // λ, μ, λ', μ', λ'' — shape and μ'' are declared
		f, err := FitSymmetricHAP(ts, opt)
		if err != nil {
			cand.Error = err.Error()
			return cand
		}
		cand.HAP = &f
		cand.Diag = f.Diag
		cand.Rate = f.Model.MeanRate()
		ia := f.Model.Interarrival()
		cand.C2 = ia.SCV()
		cand.LogLik = renewalLogLik(ia.PDF, sample)
	case "mmpp2":
		cand.K = 4 // R0, R1, Q01, Q10
		f, err := FitMMPP2EM(ctx, sorted, opt.EM)
		cand.Diag = f.Diag
		if err != nil && !errors.Is(err, haperr.ErrNotConverged) {
			cand.Error = err.Error()
			return cand
		}
		// A budget-exhausted EM still yields the best iterate; keep it as
		// a scored candidate with Diag.Converged=false on display.
		cand.MMPP2 = &f
		cand.Rate = f.Model.MeanRate()
		cand.C2 = mmpp2SCV(f)
		cand.LogLik = f.LogLik
	default:
		cand.Error = fmt.Sprintf("fit: unknown model class %q (want one of %s)", name, strings.Join(AllModels, ", "))
		return cand
	}
	n := float64(len(sample))
	cand.AIC = 2*float64(cand.K) - 2*cand.LogLik
	cand.BIC = float64(cand.K)*math.Log(n) - 2*cand.LogLik
	return cand
}

// poissonLogLik is the exact iid-exponential log-likelihood.
func poissonLogLik(rate float64, x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	return float64(len(x))*math.Log(rate) - rate*sum
}

// renewalLogLik scores interarrivals as independent draws from a
// stationary interarrival density — the closed forms' likelihood, blind
// to serial correlation by construction.
func renewalLogLik(pdf func(float64) float64, x []float64) float64 {
	ll := 0.0
	for _, v := range x {
		d := pdf(v)
		if !(d > 1e-300) || math.IsNaN(d) {
			d = 1e-300
		}
		ll += math.Log(d)
	}
	return ll
}

// mmpp2SCV approximates the fitted MMPP2's interarrival SCV from the
// state-frozen hyperexponential mixture at arrival epochs (exact in the
// slow-switching regime the embedded-HMM fit assumes).
func mmpp2SCV(f MMPP2Fit) float64 {
	p0 := f.Model.StationaryP0()
	// Arrival epochs see state k with probability ∝ π_k·R_k.
	w0 := p0 * f.Model.R0
	w1 := (1 - p0) * f.Model.R1
	tot := w0 + w1
	if !(tot > 0) {
		return 0
	}
	w0, w1 = w0/tot, w1/tot
	m1 := safeDiv(w0, f.Model.R0) + safeDiv(w1, f.Model.R1)
	m2 := 2 * (safeDiv(w0, f.Model.R0*f.Model.R0) + safeDiv(w1, f.Model.R1*f.Model.R1))
	if m1 <= 0 {
		return 0
	}
	return m2/(m1*m1) - 1
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
