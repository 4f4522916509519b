package mmpp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hap/internal/core"
)

// lstMoments extracts the first two interarrival moments from a
// Laplace–Stieltjes transform by second-order forward differences at 0
// (A*(s) = 1 − m₁s + m₂s²/2 − …).
func lstMoments(a func(float64) float64, h float64) (m1, m2 float64) {
	f0, f1, f2, f3 := a(0), a(h), a(2*h), a(3*h)
	m1 = -(-3*f0 + 4*f1 - f2) / (2 * h)
	m2 = (2*f0 - 5*f1 + 4*f2 - f3) / (h * h)
	return m1, m2
}

// sampleMMPP2 simulates n arrival epochs of an MMPP2 started from its
// stationary modulator state, by competing exponentials.
func sampleMMPP2(m MMPP2, n int, rng *rand.Rand) []float64 {
	state := 0
	if rng.Float64() > m.StationaryP0() {
		state = 1
	}
	t := 0.0
	out := make([]float64, 0, n)
	for len(out) < n {
		r, q := m.R0, m.Q01
		if state == 1 {
			r, q = m.R1, m.Q10
		}
		total := r + q
		t += rng.ExpFloat64() / total
		if rng.Float64()*total < r {
			out = append(out, t)
		} else {
			state = 1 - state
		}
	}
	return out
}

func TestSuperposeMeanRateIsSum(t *testing.T) {
	models := []MMPP2{
		{R0: 1, R1: 12, Q01: 0.4, Q10: 1.1},
		{R0: 3, R1: 3, Q01: 1, Q10: 1}, // a Poisson in MMPP2 clothing
		{R0: 0, R1: 25, Q01: 0.2, Q10: 0.6},
	}
	sup, err := SuperposeMMPP2(models...)
	if err != nil {
		t.Fatal(err)
	}
	if got := sup.Chain.N(); got != 8 {
		t.Fatalf("3 superposed MMPP2s have %d states, want 8", got)
	}
	var want float64
	for _, m := range models {
		want += m.MeanRate()
	}
	got, err := sup.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "superposed mean rate", got, want, 1e-12)
}

// TestSuperposeLSTMeanExact pins the acceptance contract: the exact LST
// of the superposed fitted process has mean interarrival 1/λ̄.
func TestSuperposeLSTMeanExact(t *testing.T) {
	models := []MMPP2{
		{R0: 2, R1: 40, Q01: 0.7, Q10: 2.3},
		{R0: 5, R1: 9, Q01: 1.5, Q10: 0.8},
		{R0: 1, R1: 70, Q01: 0.3, Q10: 3},
	}
	sup, err := SuperposeMMPP2(models...)
	if err != nil {
		t.Fatal(err)
	}
	lap, err := sup.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	lam, err := sup.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	if got := lap(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("A*(0) = %v, want 1", got)
	}
	m1, _ := lstMoments(lap, 1e-4*lam)
	wantClose(t, "LST mean vs 1/mean-rate", m1, 1/lam, 1e-6)
}

// TestSuperposeMatchesSimulatedMerge checks the superposed LST against
// a brute-force merge: simulate each component, merge and sort the
// arrival epochs, and compare the empirical interarrival mean and
// second moment with the transform's derivatives at 0.
func TestSuperposeMatchesSimulatedMerge(t *testing.T) {
	models := []MMPP2{
		{R0: 4, R1: 28, Q01: 2, Q10: 5},
		{R0: 10, R1: 10, Q01: 1, Q10: 1},
		{R0: 2, R1: 16, Q01: 3, Q10: 4},
	}
	sup, err := SuperposeMMPP2(models...)
	if err != nil {
		t.Fatal(err)
	}
	lap, err := sup.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	lam, err := sup.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantM1, wantM2 := lstMoments(lap, 1e-3*lam)

	rng := rand.New(rand.NewSource(17))
	const perStream = 120000
	var merged []float64
	for _, m := range models {
		merged = append(merged, sampleMMPP2(m, perStream, rng)...)
	}
	sort.Float64s(merged)
	// Trim to the interval every component covered so no stream "runs
	// dry" inside the measured window.
	var minLast float64 = math.Inf(1)
	// The per-stream horizon is roughly perStream/rate; conservatively
	// cut at 90% of the shortest stream's span.
	for _, m := range models {
		if span := float64(perStream) / m.MeanRate(); span < minLast {
			minLast = span
		}
	}
	cut := sort.SearchFloat64s(merged, 0.9*minLast)
	merged = merged[:cut]

	var sum, sum2 float64
	n := 0
	for i := 1; i < len(merged); i++ {
		d := merged[i] - merged[i-1]
		sum += d
		sum2 += d * d
		n++
	}
	gotM1 := sum / float64(n)
	gotM2 := sum2 / float64(n)
	wantClose(t, "merged interarrival mean", gotM1, wantM1, 0.02)
	wantClose(t, "merged interarrival second moment", gotM2, wantM2, 0.05)
}

// TestSuperposeSingleBitIdentical pins the degenerate path: one
// component superposes to itself, and the 2-state general LST is
// bit-for-bit the MMPP2 closed form.
func TestSuperposeSingleBitIdentical(t *testing.T) {
	m2 := MMPP2{R0: 1.75, R1: 23.5, Q01: 0.37, Q10: 1.29}
	sup, err := SuperposeMMPP2(m2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sup.Chain.N(); got != 2 {
		t.Fatalf("single superposed MMPP2 has %d states, want 2", got)
	}
	general, err := sup.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	closed, err := m2.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0, 1e-6, 0.01, 0.5, 1, 7.3, 42, 1e4} {
		g, c := general(s), closed(s)
		if g != c {
			t.Errorf("A*(%g): general %v != closed form %v", s, g, c)
		}
	}
}

// TestSuperposePoissonMerge: merging Poissons (R0 == R1) is a Poisson
// with the summed rate, so the superposed LST must equal λ/(λ+s).
func TestSuperposePoissonMerge(t *testing.T) {
	sup, err := SuperposeMMPP2(
		MMPP2{R0: 3, R1: 3, Q01: 1, Q10: 2},
		MMPP2{R0: 5, R1: 5, Q01: 4, Q10: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	lap, err := sup.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	const lam = 8.0
	for _, s := range []float64{0, 0.1, 1, 5, 20} {
		wantClose(t, "poisson merge LST", lap(s), lam/(lam+s), 1e-10)
	}
}

func TestSuperposeScaleRates(t *testing.T) {
	sup, err := SuperposeMMPP2(
		MMPP2{R0: 2, R1: 11, Q01: 0.5, Q10: 1.5},
		MMPP2{R0: 1, R1: 6, Q01: 2, Q10: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := sup.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	scaled := sup.ScaleRates(0.25)
	slam, err := scaled.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "scaled mean rate", slam, 0.25*lam, 1e-12)
	lap, err := scaled.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := lstMoments(lap, 1e-4*slam)
	wantClose(t, "scaled LST mean", m1, 1/slam, 1e-6)
	if scaled.Chain != sup.Chain {
		t.Error("ScaleRates rebuilt the modulating chain")
	}
}

func TestSuperposeValidation(t *testing.T) {
	if _, err := Superpose(); err == nil {
		t.Error("empty superposition accepted")
	}
	if _, err := SuperposeMMPP2(); err == nil {
		t.Error("empty MMPP2 superposition accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []MMPP2{
		{R0: -1, R1: 1, Q01: 1, Q10: 1},
		{R0: nan, R1: 1, Q01: 1, Q10: 1},
		{R0: 1, R1: nan, Q01: 1, Q10: 1},
		{R0: 1, R1: 1, Q01: nan, Q10: 1},
		{R0: 1, R1: 1, Q01: 1, Q10: nan},
		{R0: inf, R1: 1, Q01: 1, Q10: 1},
		{R0: 1, R1: inf, Q01: 1, Q10: 1},
		{R0: 1, R1: 1, Q01: inf, Q10: 1},
		{R0: 1, R1: 1, Q01: 1, Q10: inf},
	} {
		if _, err := SuperposeMMPP2(MMPP2{R0: 1, R1: 2, Q01: 1, Q10: 1}, bad); err == nil {
			t.Errorf("invalid component %+v accepted", bad)
		}
	}
	// The product-space cap: 21 two-state components need 2^21 > 2^20
	// states, so Superpose must refuse rather than allocate.
	comps := make([]*MMPP, 21)
	for i := range comps {
		comps[i] = MMPP2{R0: 1, R1: 2, Q01: 1, Q10: 1}.General()
		comps[i].pi = []float64{0.5, 0.5}
	}
	if _, err := Superpose(comps...); err == nil {
		t.Error("oversized product state space accepted")
	}
}

// TestSuperposeProductFormIsStationary checks the product-form identity
// Superpose relies on: the stationary law of a Kronecker sum of
// independent modulators is the product of their laws. A direct solve of
// the merged chain resolves every state to round-off, so the identity
// holds state by state to 1e-12, not only in aggregate.
func TestSuperposeProductFormIsStationary(t *testing.T) {
	hapProc, _, err := FromHAPSimplified(core.NewSymmetric(0.5, 0.25, 0.4, 0.5, 2, 50, 2, 2), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Superpose(hapProc,
		MMPP2{R0: 1, R1: 12, Q01: 0.4, Q10: 1.1}.General(),
		MMPP2{R0: 0, R1: 25, Q01: 0.2, Q10: 0.6}.General())
	if err != nil {
		t.Fatal(err)
	}
	product, err := sup.Stationary() // the product form Superpose seeds
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sup.Chain.GTH(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range direct {
		if d := math.Abs(product[i]-want) / want; d > 1e-12 {
			t.Errorf("state %d: product form %v, direct %v (relative error %.2g)", i, product[i], want, d)
		}
	}
}
