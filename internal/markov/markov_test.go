package markov

import (
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

// buildMM1K constructs the M/M/1/K chain for the iterative solvers.
func buildMM1K(lambda, mu float64, K int) *Chain {
	c := NewChain(K + 1)
	for i := 0; i < K; i++ {
		c.Add(i, i+1, lambda)
		c.Add(i+1, i, mu)
	}
	return c
}

func TestSteadyStateMatchesMM1K(t *testing.T) {
	lambda, mu, K := 3.0, 5.0, 30
	c := buildMM1K(lambda, mu, K)
	want := MM1KDistribution(lambda, mu, K)
	for _, solver := range []string{"power", "gs"} {
		var pi []float64
		var err error
		switch solver {
		case "power":
			pi, _, err = c.SteadyState(nil)
		case "gs":
			pi, _, err = c.GaussSeidel(nil)
		}
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		for i := range pi {
			wantClose(t, solver+" pi", pi[i], want[i], 1e-7)
		}
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	// 0→1 at rate a, 1→0 at rate b: π = (b, a)/(a+b).
	a, b := 0.3, 1.7
	c := NewChain(2)
	c.Add(0, 1, a)
	c.Add(1, 0, b)
	pi, _, err := c.SteadyState(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "pi0", pi[0], b/(a+b), 1e-9)
	wantClose(t, "pi1", pi[1], a/(a+b), 1e-9)
}

func TestGaussSeidelMatchesPowerOnRandomChain(t *testing.T) {
	// A small dense-ish random-rate irreducible chain.
	n := 12
	c := NewChain(n)
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>33)/float64(1<<31) + 0.01
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && (i+j)%3 != 0 {
				c.Add(i, j, next())
			}
		}
	}
	// Ensure irreducibility with a ring.
	for i := 0; i < n; i++ {
		c.Add(i, (i+1)%n, 0.5)
	}
	p1, _, err1 := c.SteadyState(&SteadyOptions{Tol: 1e-12})
	p2, _, err2 := c.GaussSeidel(&SteadyOptions{Tol: 1e-12})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range p1 {
		wantClose(t, "pi", p1[i], p2[i], 1e-8)
	}
}

func TestSteadyStateBalanceResidual(t *testing.T) {
	// The stationary law must satisfy global balance: inflow == outflow.
	c := buildMM1K(2, 3, 10)
	pi, _, err := c.SteadyState(&SteadyOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	inflow := make([]float64, c.N())
	for i := 0; i < c.N(); i++ {
		for _, tr := range c.Transitions(i) {
			inflow[tr.To] += pi[i] * tr.Rate
		}
	}
	for i := range inflow {
		wantClose(t, "balance", inflow[i], pi[i]*c.OutRate(i), 1e-8)
	}
}

func TestSteadyStateNoTransitions(t *testing.T) {
	c := NewChain(4)
	pi, _, err := c.SteadyState(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pi {
		wantClose(t, "uniform", p, 0.25, 1e-12)
	}
}

func TestNotConverged(t *testing.T) {
	c := buildMM1K(3, 5, 50)
	_, _, err := c.SteadyState(&SteadyOptions{Tol: 1e-15, MaxIter: 3})
	if err == nil {
		t.Error("expected ErrNotConverged with tiny budget")
	}
}

func TestChainValidation(t *testing.T) {
	c := NewChain(2)
	c.Add(0, 1, 0) // ignored
	if len(c.Transitions(0)) != 0 {
		t.Error("zero rate should be ignored")
	}
	for _, f := range []func(){
		func() { c.Add(0, 0, 1) },
		func() { c.Add(0, 1, -1) },
		func() { NewChain(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMM1RhoOneUniform(t *testing.T) {
	pi := MM1KDistribution(2, 2, 4)
	for _, p := range pi {
		wantClose(t, "uniform", p, 0.2, 1e-12)
	}
}

func TestTruncatedPoisson(t *testing.T) {
	pi := TruncatedPoisson(5.5, 60)
	var sum, mean float64
	for k, p := range pi {
		sum += p
		mean += float64(k) * p
	}
	wantClose(t, "mass", sum, 1, 1e-12)
	wantClose(t, "mean", mean, 5.5, 1e-6) // 60 >> 5.5, near-untruncated
	// Tight truncation must lower the mean.
	tight := TruncatedPoisson(5.5, 4)
	var tm float64
	for k, p := range tight {
		tm += float64(k) * p
	}
	if tm >= 4.5 {
		t.Errorf("truncated mean = %v, want < 4.5", tm)
	}
}

func TestLatticeRoundTrip(t *testing.T) {
	l := NewLattice(3, 4, 5)
	if l.N() != 60 {
		t.Fatalf("N = %d", l.N())
	}
	coords := make([]int, 3)
	for i := 0; i < l.N(); i++ {
		l.Coords(i, coords)
		if got := l.Index(coords...); got != i {
			t.Fatalf("roundtrip %d → %v → %d", i, coords, got)
		}
		for d := 0; d < 3; d++ {
			if l.At(i, d) != coords[d] {
				t.Fatalf("At(%d,%d) = %d want %d", i, d, l.At(i, d), coords[d])
			}
		}
	}
}

func TestLatticeShift(t *testing.T) {
	l := NewLattice(3, 3)
	i := l.Index(1, 2)
	if j, ok := l.Shift(i, 0, 1); !ok || l.At(j, 0) != 2 || l.At(j, 1) != 2 {
		t.Error("shift up dim0 failed")
	}
	if _, ok := l.Shift(i, 1, 1); ok {
		t.Error("shift out of bounds should fail")
	}
	if _, ok := l.Shift(l.Index(0, 0), 0, -1); ok {
		t.Error("negative shift out of bounds should fail")
	}
}

func TestExpectedValue(t *testing.T) {
	pi := []float64{0.2, 0.3, 0.5}
	got := ExpectedValue(pi, func(i int) float64 { return float64(i) })
	wantClose(t, "E", got, 1.3, 1e-12)
}

// Property: lattice Index/Coords are inverse bijections for random shapes.
func TestQuickLatticeBijection(t *testing.T) {
	f := func(a, b, c uint8, pick uint16) bool {
		da, db, dc := int(a%5)+1, int(b%5)+1, int(c%5)+1
		l := NewLattice(da, db, dc)
		i := int(pick) % l.N()
		coords := l.Coords(i, nil)
		return l.Index(coords...) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
