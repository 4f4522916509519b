package fit

import (
	"context"
	"errors"

	"hap/internal/haperr"
)

// Refitter runs the continuous estimation loop the hapfit -listen path
// needs: each Refit call takes the timestamps currently retained by a
// sliding-window TraceStats (TraceConfig.SlideWindow) and re-runs the
// MMPP2 EM fit, warm-started from the previous window's result and inside
// a private scratch arena. Because consecutive windows overlap heavily,
// the warm start typically converges in a handful of iterations, and at
// steady state (buffers grown, fit converging) a Refit performs zero
// allocations — the loop can run every N arrivals indefinitely without
// feeding the garbage collector.
//
// A Refitter is not safe for concurrent use. The zero value is ready;
// set Opt to tune the underlying fitter (Warm and Scratch are managed by
// the Refitter and overwritten on every call).
type Refitter struct {
	// Opt is the EM option template for every re-fit.
	Opt EMOptions

	scratch Scratch
	prev    MMPP2Fit
	warm    bool
	times   []float64
}

// Refit re-fits the retained window of ts. Windows shorter than the EM
// minimum (8 arrivals) return an ErrBadParameter error and leave the
// warm state untouched; a budget-exhausted fit (ErrNotConverged) still
// advances the warm state, since its best iterate is the closest
// available starting point for the next window.
func (rf *Refitter) Refit(ctx context.Context, ts *TraceStats) (MMPP2Fit, error) {
	rf.times = ts.WindowTimes(rf.times[:0])
	return rf.RefitTimes(ctx, rf.times)
}

// RefitTimes re-fits an explicit timestamp slice — the control-loop form,
// where the window snapshot was taken on another goroutine and handed
// over. Same warm-state semantics as Refit; times is not retained.
func (rf *Refitter) RefitTimes(ctx context.Context, times []float64) (MMPP2Fit, error) {
	opt := rf.Opt
	opt.Scratch = &rf.scratch
	opt.Warm = nil
	if rf.warm {
		opt.Warm = &rf.prev
	}
	f, err := FitMMPP2EM(ctx, times, opt)
	if err == nil || errors.Is(err, haperr.ErrNotConverged) {
		rf.prev, rf.warm = f, true
	}
	return f, err
}

// Last returns the most recent usable fit and whether one exists. The
// fit may be an ErrNotConverged best iterate — consult its Diag.Converged
// before treating it as authoritative; a budget-exhausted window still
// advances the warm state because its best iterate is the closest
// starting point for the next window.
func (rf *Refitter) Last() (MMPP2Fit, bool) { return rf.prev, rf.warm }

// RefitReport is the exportable snapshot of one refit cycle. The window
// moments describe exactly the data the fit saw; the cumulative moments
// describe the whole stream since start. (Reporting only the cumulative
// rate/c² next to a window-local fit conflated the two — after a level
// shift they can disagree arbitrarily.)
type RefitReport struct {
	Arrivals   int64   `json:"arrivals"`    // stream arrivals ingested since start
	WindowN    int     `json:"window_n"`    // timestamps in the fitted window
	WindowRate float64 `json:"window_rate"` // arrival rate over the window
	WindowC2   float64 `json:"window_c2"`   // interarrival c² over the window
	CumRate    float64 `json:"cum_rate"`    // whole-stream rate since start
	CumC2      float64 `json:"cum_c2"`      // whole-stream c² since start
	R0         float64 `json:"r0"`          // fitted MMPP2 slow-state rate
	R1         float64 `json:"r1"`          // fitted MMPP2 fast-state rate
	Q01        float64 `json:"q01"`
	Q10        float64 `json:"q10"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
}

// Report snapshots the current warm state against the accumulator that
// feeds it. The fit fields are zero before the first successful Refit.
func (rf *Refitter) Report(ts *TraceStats) RefitReport {
	wr, wc2 := ts.WindowMoments()
	r := RefitReport{
		Arrivals:   ts.N(),
		WindowN:    ts.WindowN(),
		WindowRate: wr,
		WindowC2:   wc2,
		CumRate:    ts.Rate(),
		CumC2:      ts.C2(),
	}
	if f, ok := rf.Last(); ok {
		r.R0, r.R1 = f.Model.R0, f.Model.R1
		r.Q01, r.Q10 = f.Model.Q01, f.Model.Q10
		r.Iterations = f.Diag.Iterations
		r.Converged = f.Diag.Converged
	}
	return r
}
