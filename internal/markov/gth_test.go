package markov

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hap/internal/haperr"
	"hap/internal/obs"
)

// wantRel fails unless every got[i] is within rel of want[i], relative to
// want[i] itself, so tail states weigh as much as the bulk.
func wantRel(t *testing.T, name string, got, want []float64, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d states, want %d", name, len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(got[i]-want[i]) / want[i]; !(d <= rel) {
			t.Errorf("%s[%d] = %v, want %v (relative error %.2g > %.2g)", name, i, got[i], want[i], d, rel)
		}
	}
}

// buildMMInf is the M/M/∞ occupancy truncated at K: births at λ, deaths
// at k·μ.
func buildMMInf(lambda, mu float64, K int) *Chain {
	c := NewChain(K + 1)
	for k := 0; k < K; k++ {
		c.Add(k, k+1, lambda)
		c.Add(k+1, k, float64(k+1)*mu)
	}
	return c
}

func directSolves() float64 { return obs.Default.Snapshot()["hap_markov_direct_solves_total"] }

// TestGTHMatchesTruncatedMMInf checks the direct solve against the
// truncated Poisson law state by state, out to a tail near 1e-200 where an
// iterate stopped at an absolute tolerance is pure noise.
func TestGTHMatchesTruncatedMMInf(t *testing.T) {
	const m, K = 5.5, 200
	want := TruncatedPoisson(m, K)
	if want[K] > 1e-100 {
		t.Fatalf("tail %g does not reach below 1e-100; lengthen the chain", want[K])
	}
	got, err := buildMMInf(m, 1, K).GTH(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRel(t, "gth", got, want, 1e-12)
}

// TestGTHMatchesMM1K does the same for the geometric M/M/1/K law.
func TestGTHMatchesMM1K(t *testing.T) {
	const lambda, mu, K = 1.0, 10.0, 150
	want := MM1KDistribution(lambda, mu, K)
	if want[K] > 1e-100 {
		t.Fatalf("tail %g does not reach below 1e-100; lengthen the chain", want[K])
	}
	got, err := buildMM1K(lambda, mu, K).GTH(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRel(t, "gth", got, want, 1e-12)
}

// randomChain draws an irreducible chain on n states: a ring in both
// directions keeps it irreducible, and random extra transitions of random
// reach give it an uneven band.
func randomChain(r *rand.Rand, n int) *Chain {
	c := NewChain(n)
	for i := 0; i < n; i++ {
		c.Add(i, (i+1)%n, 0.1+r.Float64())
		c.Add((i+1)%n, i, 0.1+r.Float64())
		if j := r.Intn(n); j != i {
			c.Add(i, j, 5*r.Float64())
		}
	}
	return c
}

// Property: on random small irreducible chains the direct solve and power
// iteration agree.
func TestQuickGTHMatchesPower(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChain(r, 2+int(nRaw%11))
		direct, err := c.GTH(nil)
		if err != nil {
			return false
		}
		power, _, err := c.SteadyState(&SteadyOptions{Tol: 1e-14, MaxIter: 1000000})
		if err != nil {
			return false
		}
		for i := range direct {
			if math.Abs(direct[i]-power[i]) > 1e-10 {
				t.Logf("state %d: gth %v, power %v", i, direct[i], power[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGTHDenseMatchesBand runs the dense entry point on the same random
// chains as the band one.
func TestGTHDenseMatchesBand(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 9, 40} {
		c := randomChain(r, n)
		q := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for _, tr := range c.Transitions(i) {
				q[i*n+tr.To] += tr.Rate
			}
			q[i*n+i] = -c.OutRate(i) // ignored
		}
		dense, err := GTHDense(nil, q, n)
		if err != nil {
			t.Fatal(err)
		}
		band, err := c.GTH(nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRel(t, "dense", dense, band, 1e-12)
	}
}

// buildStar joins hub 0 to every other state both ways (out at α each, in
// at 1), so the band spans the whole chain: π_0 = 1/(1+(n−1)α) and every
// leaf has α·π_0.
func buildStar(n int, alpha float64) (*Chain, []float64) {
	c := NewChain(n)
	want := make([]float64, n)
	p0 := 1 / (1 + float64(n-1)*alpha)
	want[0] = p0
	for i := 1; i < n; i++ {
		c.Add(0, i, alpha)
		c.Add(i, 0, 1)
		want[i] = alpha * p0
	}
	return c, want
}

// TestStationaryBandCap covers both sides of the band-storage cap: a
// chain whose band fits is solved directly (no sweeps, one direct solve
// counted); one whose band would exceed maxBandStorage falls back to
// power iteration.
func TestStationaryBandCap(t *testing.T) {
	small, wantSmall := buildStar(100, 0.01)
	if lo, hi := small.bandwidth(); small.N()*(lo+hi+1) > maxBandStorage {
		t.Fatal("small star exceeds the band cap")
	}
	before := directSolves()
	pi, st, err := small.Stationary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 0 || !st.Converged || directSolves() != before+1 {
		t.Errorf("small chain: stats %+v, direct solves +%v; want the direct path", st, directSolves()-before)
	}
	wantRel(t, "direct", pi, wantSmall, 1e-12)

	const n = 1500
	wide, wantWide := buildStar(n, 1.0/(n-1))
	if lo, hi := wide.bandwidth(); lo != n-1 || hi != n-1 || n*(lo+hi+1) <= maxBandStorage {
		t.Fatalf("wide star band (%d, %d) does not exceed the cap", lo, hi)
	}
	before = directSolves()
	pi, st, err = wide.Stationary(&SteadyOptions{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations == 0 || directSolves() != before {
		t.Errorf("wide chain: stats %+v, direct solves +%v; want power iteration", st, directSolves()-before)
	}
	wantRel(t, "power", pi, wantWide, 1e-9)
}

// TestGTHCancelled checks that a cancelled context aborts the direct path.
func TestGTHCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := buildMMInf(5.5, 1, 200)
	if _, err := c.GTH(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("GTH: err = %v, want context.Canceled", err)
	}
	if _, _, err := c.Stationary(&SteadyOptions{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("Stationary: err = %v, want context.Canceled", err)
	}
	if _, err := GTHDense(ctx, []float64{0, 1, 1, 0}, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("GTHDense: err = %v, want context.Canceled", err)
	}
}

// TestGTHNotIrreducible checks that a chain with no unique stationary law
// is reported, not solved.
func TestGTHNotIrreducible(t *testing.T) {
	c := NewChain(3)
	c.Add(0, 1, 1)
	c.Add(1, 2, 1) // 2 is absorbing
	if _, err := c.GTH(nil); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("err = %v, want ErrBadParameter", err)
	}
	pi, err := NewChain(1).GTH(nil)
	if err != nil || len(pi) != 1 || pi[0] != 1 {
		t.Errorf("one-state chain: %v, %v; want [1]", pi, err)
	}
}

func TestBandwidthIsLatticeStride(t *testing.T) {
	l := NewLattice(4, 7)
	c := NewChain(l.N())
	for s := 0; s < l.N(); s++ {
		for d := 0; d < 2; d++ {
			for _, delta := range []int{-1, 1} {
				if to, ok := l.Shift(s, d, delta); ok {
					c.Add(s, to, 1)
				}
			}
		}
	}
	if lo, hi := c.bandwidth(); lo != 7 || hi != 7 {
		t.Errorf("lattice (4, 7) band = (%d, %d), want the stride of x, (7, 7)", lo, hi)
	}
}
