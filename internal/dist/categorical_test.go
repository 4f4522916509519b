package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestCategoricalValidation(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Fatalf("empty weights accepted")
	}
	for _, bad := range [][]float64{{0}, {-1, 2}, {1, math.NaN()}, {1, math.Inf(-1)}} {
		if _, err := NewCategorical(bad); err == nil {
			t.Fatalf("weights %v accepted", bad)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c, err := NewCategorical([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	const n = 200000
	counts := make([]int, 2)
	for i := 0; i < n; i++ {
		counts[c.Sample(r)]++
	}
	// Binomial std ≈ sqrt(n·p·q) ≈ 194; allow 5 sigma on a fixed seed.
	want := 0.75 * n
	if d := math.Abs(float64(counts[1]) - want); d > 5*math.Sqrt(n*0.25*0.75) {
		t.Fatalf("category 1 drawn %d times, want ≈ %g", counts[1], want)
	}
}

// TestCategoricalOneDrawPerSample pins the stream-consumption contract the
// routing determinism relies on: each Sample consumes exactly one uniform.
func TestCategoricalOneDrawPerSample(t *testing.T) {
	c, _ := NewCategorical([]float64{2, 1, 1})
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		c.Sample(a)
		b.Float64()
	}
	if a.Float64() != b.Float64() {
		t.Fatalf("Sample consumed more or fewer than one uniform per call")
	}
}
