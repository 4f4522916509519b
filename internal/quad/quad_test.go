package quad

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func wantClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestSimpsonPolynomialExact(t *testing.T) {
	// Simpson is exact for cubics.
	f := func(x float64) float64 { return 3*x*x*x - 2*x + 1 }
	got := Simpson(f, 0, 2, 1e-12)
	wantClose(t, "∫cubic", got, 12-4+2, 1e-9)
}

func TestSimpsonExponential(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x) }
	got := Simpson(f, 0, 10, 1e-12)
	wantClose(t, "∫e^-x", got, 1-math.Exp(-10), 1e-9)
}

func TestSimpsonEmptyAndInvalid(t *testing.T) {
	if Simpson(math.Sin, 1, 1, 1e-8) != 0 {
		t.Error("zero-width integral should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("a > b should panic")
		}
	}()
	Simpson(math.Sin, 2, 1, 1e-8)
}

func TestToInfExponentialDensity(t *testing.T) {
	for _, rate := range []float64{0.1, 1, 8.25, 100} {
		r := rate
		f := func(x float64) float64 { return r * math.Exp(-r*x) }
		got := ToInf(f, 0, 1/r, 1e-11)
		wantClose(t, "∫λe^-λt", got, 1, 1e-7)
		mean := ToInf(func(x float64) float64 { return x * f(x) }, 0, 1/r, 1e-12)
		wantClose(t, "mean", mean, 1/r, 1e-6/r)
	}
}

func TestToInfGaussianTail(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x * x / 2) }
	got := ToInf(f, 0, 1, 1e-11)
	wantClose(t, "half gaussian", got, math.Sqrt(math.Pi/2), 1e-7)
}

func TestBisect(t *testing.T) {
	root, _, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "sqrt2", root, math.Sqrt2, 1e-10)

	if _, _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10); err == nil {
		t.Error("expected ErrNoConvergence for non-bracketing interval")
	}
	// Roots at endpoints.
	r, _, err := Bisect(func(x float64) float64 { return x }, 0, 1, 1e-10)
	if err != nil || r != 0 {
		t.Errorf("endpoint root: got %v, %v", r, err)
	}
}

func TestFixedPointConverges(t *testing.T) {
	// x = cos(x) has the Dottie number fixed point ~0.739085.
	x, n, err := FixedPoint(context.Background(), math.Cos, 0.5, 0.5, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "dottie", x, 0.7390851332151607, 1e-9)
	if n <= 0 {
		t.Error("iteration count not reported")
	}
}

func TestFixedPointPaperSigmaAnalogue(t *testing.T) {
	// For M/M/1 the σ equation A*(μ-μσ)=σ with A* = λ/(λ+s) has the root
	// σ = ρ. Check the paper's damp=0.5 averaging iteration finds it.
	lambda, mu := 8.25, 20.0
	g := func(sig float64) float64 { return lambda / (lambda + mu - mu*sig) }
	x, _, err := FixedPoint(context.Background(), g, 0.5, 0.5, 1e-13, 2000)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "sigma", x, lambda/mu, 1e-9)
}

func TestFixedPointBudgetExhausted(t *testing.T) {
	_, _, err := FixedPoint(context.Background(), func(x float64) float64 { return x + 1 }, 0, 0.5, 1e-12, 10)
	if err == nil {
		t.Error("diverging map should report ErrNoConvergence")
	}
}

// Property: Simpson over [0,b] of any exponential-family density stays
// within [0,1] and increases with b.
func TestQuickSimpsonCDFMonotone(t *testing.T) {
	f := func(rate, b1, b2 float64) bool {
		lam := math.Abs(rate)
		if lam < 0.01 || lam > 100 || math.IsNaN(lam) {
			lam = 1
		}
		x1, x2 := math.Abs(b1), math.Abs(b2)
		if x1 > 20 {
			x1 = math.Mod(x1, 20)
		}
		if x2 > 20 {
			x2 = math.Mod(x2, 20)
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		den := func(x float64) float64 { return lam * math.Exp(-lam*x) }
		i1 := Simpson(den, 0, x1, 1e-10)
		i2 := Simpson(den, 0, x2, 1e-10)
		return i1 >= -1e-9 && i2 <= 1+1e-9 && i1 <= i2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: bisection root of x - c = 0 recovers c for any c in range.
func TestQuickBisectLinear(t *testing.T) {
	f := func(c float64) bool {
		cc := math.Mod(math.Abs(c), 10)
		root, _, err := Bisect(func(x float64) float64 { return x - cc }, -1, 11, 1e-10)
		return err == nil && math.Abs(root-cc) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
