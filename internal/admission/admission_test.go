package admission

import (
	"errors"
	"math"
	"testing"
	"time"

	"hap/internal/core"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/solver"
)

func TestMaxWorkloadMeetsTarget(t *testing.T) {
	m := core.PaperParams(20)
	target := 0.12
	f, delay, err := MaxWorkload(m, target)
	if err != nil {
		t.Fatal(err)
	}
	if delay > target {
		t.Errorf("returned delay %v exceeds target %v", delay, target)
	}
	// The boundary must be tight: a slightly higher load misses the target.
	over, err := solver.Solution2(m.Scale(core.LevelUser, f*1.05), nil)
	if err == nil && over.Delay <= target {
		t.Errorf("f=%v is not maximal (f·1.05 → %v)", f, over.Delay)
	}
	// Base model has delay ≈ 0.094 < 0.12, so f must exceed 1.
	if f <= 1 {
		t.Errorf("f = %v, want > 1", f)
	}
}

func TestMaxWorkloadInfeasible(t *testing.T) {
	m := core.PaperParams(20)
	// Below the bare service time 1/20, no load level works.
	if _, _, err := MaxWorkload(m, 0.01); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
	if _, _, err := MaxWorkload(m, -1); err == nil {
		t.Error("negative target must error")
	}
}

func TestRequiredBandwidth(t *testing.T) {
	m := core.PaperParams(20)
	target := 0.1
	mu, err := RequiredBandwidth(m, target)
	if err != nil {
		t.Fatal(err)
	}
	// Check the returned bandwidth indeed meets the target, tightly.
	scaled := m.Clone()
	for i := range scaled.Apps {
		for j := range scaled.Apps[i].Messages {
			scaled.Apps[i].Messages[j].Mu = mu
		}
	}
	res, err := solver.Solution2(scaled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > target*(1+1e-3) {
		t.Errorf("delay %v at returned bandwidth exceeds target %v", res.Delay, target)
	}
	// HAP needs more than the M/M/1 bandwidth λ + 1/T.
	mm1 := m.MeanRate() + 1/target
	if mu <= mm1 {
		t.Errorf("HAP bandwidth %v should exceed the Poisson requirement %v", mu, mm1)
	}
}

func TestBoundsForDelay(t *testing.T) {
	m := core.PaperParams(20)
	s2, err := solver.Solution2(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A target below the unbounded delay forces finite caps.
	target := s2.Delay * 0.97
	users, apps, err := BoundsForDelay(m, target, 0)
	if err != nil {
		t.Fatal(err)
	}
	if users <= 0 || users >= 400 {
		t.Fatalf("caps %d/%d not finite and positive", users, apps)
	}
	res, err := solver.Solution2Bounded(m, users, apps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > target {
		t.Errorf("bounded delay %v exceeds target %v", res.Delay, target)
	}
	// A generous target needs no caps.
	u2, _, err := BoundsForDelay(m, s2.Delay*2, 0)
	if err != nil || u2 != 400 {
		t.Errorf("generous target should be uncapped: %d, %v", u2, err)
	}
	// The caps a scan over every user cap finds.
	for _, c := range []struct {
		mu, target  float64
		users, apps int
	}{
		{5, 1, 3, 15},
		{8, 1, 7, 35},
		{8, 10, 9, 45},
		{8.5, 1, 8, 40},
		{8.5, 10, 400, 2000},
	} {
		u, a, err := BoundsForDelay(core.PaperParams(c.mu), c.target, 0)
		if err != nil || u != c.users || a != c.apps {
			t.Errorf("μ''=%g, target %g: caps %d/%d (%v), want %d/%d", c.mu, c.target, u, a, err, c.users, c.apps)
		}
	}
	// Uncapped, these queues are unstable (ρ 1.65 and 1.03): a cap whose
	// queue is unstable misses the target, so the caps found must be
	// stable and meet it, or there are none.
	for _, c := range []struct{ mu, target float64 }{{5, 10}, {8, 1000}} {
		m := core.PaperParams(c.mu)
		u, a, err := BoundsForDelay(m, c.target, 0)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Errorf("μ''=%g, target %g: %v", c.mu, c.target, err)
			continue
		}
		if res, err := solver.Solution2Bounded(m, u, a, nil); err != nil || res.Delay > c.target {
			t.Errorf("μ''=%g, target %g: caps %d/%d give delay %v (%v)", c.mu, c.target, u, a, res.Delay, err)
		}
	}
}

func TestRegionAndTable(t *testing.T) {
	classes := []CallClass{
		{Name: "voice", MsgRate: 0.5},
		{Name: "video", MsgRate: 2.0},
	}
	r, err := NewRegion(classes, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// λmax = 20 − 10 = 10 → 20 voice alone, 5 video alone.
	if r.MaxCalls[0] != 20 || r.MaxCalls[1] != 5 {
		t.Fatalf("extreme points = %v", r.MaxCalls)
	}
	if !r.Admissible([]int{10, 2}) { // λ = 9 < 10
		t.Error("(10,2) should be admissible")
	}
	if r.Admissible([]int{10, 3}) { // λ = 11 > 10
		t.Error("(10,3) should be rejected")
	}
	if r.Admissible([]int{-1, 0}) {
		t.Error("negative counts must be rejected")
	}
	// Linear approximation coincides with the exact M/M/1 boundary.
	for n0 := 0; n0 <= 22; n0++ {
		for n1 := 0; n1 <= 6; n1++ {
			if r.Admissible([]int{n0, n1}) != r.AdmissibleLinear([]int{n0, n1}) {
				t.Errorf("linear mismatch at (%d,%d)", n0, n1)
			}
		}
	}
	tab, err := r.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Lookup(10, 2) || tab.Lookup(10, 3) || tab.Lookup(21, 0) || tab.Lookup(-1, 0) {
		t.Error("table lookups disagree with region")
	}
	if tab.String() == "" {
		t.Error("empty table rendering")
	}
}

func TestRegionValidation(t *testing.T) {
	if _, err := NewRegion(nil, 20, 0.1); err == nil {
		t.Error("empty classes must fail")
	}
	if _, err := NewRegion([]CallClass{{Name: "x", MsgRate: 1}}, 20, 0.01); !errors.Is(err, ErrInfeasible) {
		t.Error("target below service time must be infeasible")
	}
	if _, err := NewRegion([]CallClass{{Name: "x", MsgRate: 0}}, 20, 0.1); err == nil {
		t.Error("zero-rate class must fail")
	}
	r, _ := NewRegion([]CallClass{{Name: "x", MsgRate: 1}}, 20, 0.1)
	if _, err := r.BuildTable(); err == nil {
		t.Error("one-class table must fail")
	}
}

func TestHAPHeadroomBelowOne(t *testing.T) {
	// The HAP correction must admit less than the Poisson region: factor
	// strictly inside (0, 1) for a tight target.
	m := core.PaperParams(20)
	mu := 20.0
	target := 0.105 // a bit above Poisson-feasible at λmax
	laplaceAt := func(scale float64) func(float64) float64 {
		return m.Scale(core.LevelUser, scale).Interarrival().Laplace
	}
	rateAt := func(scale float64) float64 { return scale * m.MeanRate() }
	factor, err := HAPHeadroom(laplaceAt, rateAt, mu, target)
	if err != nil {
		t.Fatal(err)
	}
	if factor <= 0 || factor >= 1 {
		t.Errorf("headroom factor = %v, want in (0,1)", factor)
	}
	// Infeasible target.
	if _, err := HAPHeadroom(laplaceAt, rateAt, mu, 0.01); !errors.Is(err, ErrInfeasible) {
		t.Error("expected ErrInfeasible")
	}
}

func TestMaxScaleOnTransform(t *testing.T) {
	// Poisson transform: λ/(λ+s). G/M/1 collapses to M/M/1 with
	// T = 1/(μ−λ), so the scale meeting target T* solves f·λ = μ − 1/T*.
	const lam, mu = 5.0, 20.0
	laplaceAt := func(f float64) gm1.Laplace {
		l := f * lam
		return func(s float64) float64 { return l / (l + s) }
	}
	rateAt := func(f float64) float64 { return f * lam }
	target := 0.2 // admits up to λf = 15 → f = 3
	f, delay, err := MaxScale(laplaceAt, rateAt, mu, target, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-3) > 1e-3 {
		t.Errorf("scale = %v, want 3 (M/M/1 closed form)", f)
	}
	if delay > target {
		t.Errorf("delay at returned scale %v exceeds target %v", delay, target)
	}
	// A target below the empty-system service time is infeasible.
	if _, _, err := MaxScale(laplaceAt, rateAt, mu, 0.01, 8); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
	// Headroom saturates at fMax when even fMax meets the target.
	f, _, err = MaxScale(laplaceAt, rateAt, mu, 10, 2)
	if err != nil || f != 2 {
		t.Errorf("saturated search = %v, %v; want fMax=2, nil", f, err)
	}
}

// TestMaxScaleAllMidsFail pins the unstable-band bugfix: when the
// tiny-load probe is feasible but every interior bisection evaluation
// fails (solver unstable across the whole band), the search must return
// the just-proven feasible point, not ErrInfeasible with delay 0.
func TestMaxScaleAllMidsFail(t *testing.T) {
	const mu = 20.0
	cases := []struct {
		name string
		// feasibleBelow is the scale above which every evaluation fails
		// (rate driven to ρ ≥ 1).
		feasibleBelow float64
	}{
		{"all interior evals unstable", 5e-6},
		{"band collapses just above the probe", 1.1e-6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Below the threshold: a gentle Poisson stream. Above: a rate
			// at ρ ≥ 1, which eval rejects before solving.
			rateAt := func(f float64) float64 {
				if f <= tc.feasibleBelow {
					return 5 * f / tc.feasibleBelow // well under mu
				}
				return 2 * mu
			}
			laplaceAt := func(f float64) gm1.Laplace {
				l := rateAt(f)
				return func(s float64) float64 { return l / (l + s) }
			}
			f, delay, err := MaxScale(laplaceAt, rateAt, mu, 1.0, 4)
			if err != nil {
				t.Fatalf("feasible probe point lost: %v", err)
			}
			if f != 1e-6 {
				t.Errorf("scale = %v, want the probe point 1e-6", f)
			}
			if !(delay > 0) || delay > 1.0 {
				t.Errorf("delay = %v, want the probe's feasible delay in (0, target]", delay)
			}
		})
	}
	// A genuinely infeasible probe still reports ErrInfeasible.
	badRate := func(f float64) float64 { return 2 * mu }
	badLap := func(f float64) gm1.Laplace {
		return func(s float64) float64 { return 1 }
	}
	if _, _, err := MaxScale(badLap, badRate, mu, 1.0, 4); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

// TestMaxScaleRejectsBadParameters feeds the search a ceiling, target or
// service rate that is not positive and finite. Each must return
// ErrBadParameter at once. A bisection toward an infinite ceiling never
// narrows, so each call runs under a deadline: a regression fails
// instead of hanging.
func TestMaxScaleRejectsBadParameters(t *testing.T) {
	laplaceAt := func(f float64) gm1.Laplace {
		return func(s float64) float64 { return f / (f + s) }
	}
	rateAt := func(f float64) float64 { return f }
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name             string
		mu, target, fMax float64
	}{
		{"NaN ceiling", 20, 1, nan},
		{"infinite ceiling", 20, 1, inf},
		{"zero ceiling", 20, 1, 0},
		{"negative ceiling", 20, 1, -1},
		{"NaN target", 20, nan, 4},
		{"NaN service rate", nan, 1, 4},
	} {
		done := make(chan error, 1)
		go func() {
			_, _, err := MaxScale(laplaceAt, rateAt, tc.mu, tc.target, tc.fMax)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, haperr.ErrBadParameter) {
				t.Errorf("%s: err = %v, want ErrBadParameter", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: search did not return within 10s", tc.name)
		}
	}
}

// TestMaxWorkloadAllMidsFail is the model-level twin: a model whose
// tiny-load scaling is solvable but whose interior band is unstable must
// return the probe point.
func TestMaxWorkloadAllMidsFail(t *testing.T) {
	m := core.PaperParams(20)
	// Find a target the near-zero-load system meets but f=tol-scale loads
	// do not: the bare service time plus a hair.
	probe, err := solver.Solution2(m.Scale(core.LevelUser, 1e-6), nil)
	if err != nil {
		t.Fatal(err)
	}
	target := probe.Delay * 1.0001
	f, delay, err := MaxWorkload(m, target)
	if err != nil {
		t.Fatalf("feasible probe point lost: %v", err)
	}
	if f < 1e-6 {
		t.Errorf("f = %v, want >= the probe point 1e-6", f)
	}
	if delay > target {
		t.Errorf("delay %v exceeds target %v", delay, target)
	}
}

// TestHeadroomGoldenBits pins the searches' results bit for bit
// (linux/amd64, GOAMD64=v1): MaxWorkload and RequiredBandwidth on P0
// through Solution 2, and MaxScale on a Poisson transform.
func TestHeadroomGoldenBits(t *testing.T) {
	m := core.PaperParams(20)
	f, delay, err := MaxWorkload(m, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	pinBits(t, "MaxWorkload f", f, 0x3ff4f5c0b485e3da)
	pinBits(t, "MaxWorkload delay", delay, 0x3fbeb7ed8c170bd0)

	const lam, mu = 5.0, 20.0
	laplaceAt := func(f float64) gm1.Laplace {
		l := f * lam
		return func(s float64) float64 { return l / (l + s) }
	}
	rateAt := func(f float64) float64 { return f * lam }
	f, delay, err = MaxScale(laplaceAt, rateAt, mu, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	pinBits(t, "MaxScale f", f, 0x4007ffe053e3193e)
	pinBits(t, "MaxScale delay", delay, 0x3fc99934412f0d51)

	bw, err := RequiredBandwidth(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pinBits(t, "RequiredBandwidth mu", bw, 0x40334ef550203c1e)
}

func pinBits(t *testing.T, name string, got float64, want uint64) {
	t.Helper()
	if bits := math.Float64bits(got); bits != want {
		t.Errorf("%s = %v (bits %#x), want bits %#x (%v)", name, got, bits, want, math.Float64frombits(want))
	}
}
