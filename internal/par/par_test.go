package par

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"hap/internal/dist"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	got := Map(nil, 100, 0, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapNDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each unit draws from its own index-derived RNG; any cross-worker
	// leakage or misplacement would break equality with the serial run.
	work := func(i int) float64 {
		rng := rand.New(rand.NewSource(dist.SubSeed(42, i)))
		var s float64
		for k := 0; k < 1000; k++ {
			s += rng.Float64()
		}
		return s
	}
	serial := Map(nil, 64, 1, work)
	for _, workers := range []int{2, 3, 4, 16, 0} {
		if got := Map(nil, 64, workers, work); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

func TestMapNEmptyAndClamp(t *testing.T) {
	if got := Map(nil, 0, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 should return nil, got %v", got)
	}
	// More workers than items must not panic or drop items.
	got := Map(nil, 3, 64, func(i int) int { return i })
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("got %v", got)
	}
}

// TestMapCancellation: a nil ctx never cancels, and once ctx is done no
// new index starts, so unstarted slots keep their zero value — at 1 worker
// and at N.
func TestMapCancellation(t *testing.T) {
	const n = 32
	val := func(i int) int { return i*i + 1 } // never zero
	for _, workers := range []int{1, 4} {
		for i, v := range Map(nil, n, workers, val) {
			if v != val(i) {
				t.Fatalf("workers=%d nil ctx: out[%d] = %d, want %d", workers, i, v, val(i))
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int32
		got := Map(ctx, n, workers, func(i int) int { calls.Add(1); return val(i) })
		if len(got) != n || calls.Load() != 0 {
			t.Fatalf("workers=%d cancelled ctx: %d slots, %d calls; want %d slots, 0 calls", workers, len(got), calls.Load(), n)
		}
		for i, v := range got {
			if v != 0 {
				t.Fatalf("workers=%d cancelled ctx: unstarted out[%d] = %d, want 0", workers, i, v)
			}
		}

		// Item 3 cancels mid-run, and every later item waits for the
		// cancel before returning, so no worker holds more than one of
		// them: items 0..3 always finish, at most workers−1 more start,
		// and every other slot stays zero.
		ctx, cancel = context.WithCancel(context.Background())
		got = Map(ctx, n, workers, func(i int) int {
			if i == 3 {
				cancel()
			}
			if i > 3 {
				<-ctx.Done()
			}
			return val(i)
		})
		ran := 0
		for i, v := range got {
			if v != 0 && v != val(i) || v == 0 && i <= 3 {
				t.Fatalf("workers=%d mid-run cancel: out[%d] = %d, want %d", workers, i, v, val(i))
			}
			if v != 0 {
				ran++
			}
		}
		if ran > 3+workers {
			t.Fatalf("workers=%d mid-run cancel: %d items ran, want at most %d", workers, ran, 3+workers)
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Index 5 and index 2 both fail; the reported error must be index 2's
	// regardless of completion order.
	for trial := 0; trial < 20; trial++ {
		out, err := MapErr(8, 4, func(i int) (int, error) {
			switch i {
			case 2:
				return 0, errA
			case 5:
				return 0, errB
			default:
				return i, nil
			}
		})
		if !errors.Is(err, errA) {
			t.Fatalf("got err %v, want %v", err, errA)
		}
		if len(out) != 8 || out[7] != 7 {
			t.Fatalf("successful results not retained: %v", out)
		}
	}
}

func TestMapErrNilOnSuccess(t *testing.T) {
	out, err := MapErr(10, 0, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 10 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestReplicateSeedsAreWellSeparatedAndStable(t *testing.T) {
	seeds := Replicate(nil, 16, 7, 0, func(rep int, seed int64) int64 { return seed })
	seen := map[int64]bool{}
	for i, s := range seeds {
		if s != dist.SubSeed(7, i) {
			t.Fatalf("rep %d seed %d, want %d", i, s, dist.SubSeed(7, i))
		}
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	again := Replicate(nil, 16, 7, 1, func(rep int, seed int64) int64 { return seed })
	if !reflect.DeepEqual(seeds, again) {
		t.Fatal("Replicate not reproducible across worker counts")
	}
}

func TestAllRunsEverythingAndReportsFirstError(t *testing.T) {
	var ran atomic.Int32
	errX := errors.New("x")
	err := All(
		func() error { ran.Add(1); return nil },
		func() error { ran.Add(1); return errX },
		func() error { ran.Add(1); return errors.New("later") },
	)
	if !errors.Is(err, errX) {
		t.Fatalf("got %v, want %v", err, errX)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d of 3 functions", ran.Load())
	}
	if err := All(); err != nil {
		t.Fatalf("empty All: %v", err)
	}
}

func TestWorkersClamping(t *testing.T) {
	if w := Workers(0, 5); w < 1 {
		t.Fatalf("Workers(0,5)=%d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8,3)=%d, want 3", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Fatalf("Workers(-1,0)=%d, want 1", w)
	}
}
