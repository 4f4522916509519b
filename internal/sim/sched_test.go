package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hap/internal/core"
)

// refHeap is the reference oracle for the scheduler tests: a plain binary
// min-heap ordered by (t, seq) with float comparisons, sharing nothing
// with the radix heap's bit-pattern keys.
type refHeap []event

func (h refHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *refHeap) push(e event) {
	*h = append(*h, e)
	hh := *h
	for i := len(hh) - 1; i > 0; {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

func (h *refHeap) pop() event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh = hh[:n]
	*h = hh
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && hh.less(l, smallest) {
			smallest = l
		}
		if r < n && hh.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		hh[i], hh[smallest] = hh[smallest], hh[i]
		i = smallest
	}
	return top
}

// checkSameOrder pops one event from both structures and fails on any
// divergence in the (t, seq) total order.
func checkSameOrder(t *testing.T, ref *refHeap, s *sched) event {
	t.Helper()
	want := ref.pop()
	got := s.pop()
	if got.t != want.t || got.seq != want.seq {
		t.Fatalf("pop order diverged: sched (t=%v seq=%d), heap (t=%v seq=%d)",
			got.t, got.seq, want.t, want.seq)
	}
	return want
}

// TestSchedMatchesHeapRandomized drives the radix heap and the reference
// binary heap through identical randomized push/pop interleavings and
// asserts they agree on every pop. The time scales per trial span nine
// orders of magnitude; the push mix includes exact ties (same t, ordered
// by seq), small discrete clusters, 1e290 outliers and +Inf, which sit in
// the top buckets. Each trial opens at the bottom of the key space — 200
// steps of +0 and -0, then 1800 of subnormal times — so the sign-bit
// mapping and the lowest buckets are exercised too.
func TestSchedMatchesHeapRandomized(t *testing.T) {
	scales := []float64{1e-6, 1e-3, 1.0, 1e3}
	negZero := math.Copysign(0, -1)
	for trial, scale := range scales {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var ref refHeap
		s := newSched()
		var seq uint64
		now := 0.0
		push := func(tm float64) {
			seq++
			ev := event{t: tm, seq: seq}
			ref.push(ev)
			s.push(ev)
		}
		for step := 0; step < 120000; step++ {
			if s.len() == 0 || rng.Float64() < 0.55 {
				var tm float64
				switch r := rng.Float64(); {
				case step < 200 && r < 0.5:
					tm = negZero // ties with +0 by seq
				case step < 200:
					tm = 0
				case step < 2000:
					// Subnormal steps small enough that the whole phase
					// stays below the smallest normal float.
					tm = now + math.Float64frombits(uint64(rng.Int63n(1<<40)))
				case r < 0.05:
					tm = now // exact tie with the clock
				case r < 0.12:
					tm = now + float64(rng.Intn(3))*scale // clustered ties
				case r < 0.125:
					tm = 1e290 * (1 + rng.Float64()) // far-future outlier
				case r < 0.13:
					tm = math.Inf(1)
				default:
					tm = now + rng.ExpFloat64()*scale
				}
				push(tm)
			} else {
				now = checkSameOrder(t, &ref, &s).t
			}
			if s.len() != len(ref) {
				t.Fatalf("trial %d: size diverged: sched %d, heap %d", trial, s.len(), len(ref))
			}
		}
		for s.len() > 0 {
			checkSameOrder(t, &ref, &s)
		}
	}
}

// TestEventHeapPopOrder is a property test: under random pushes (with
// heavy time ties), pop order must equal the (t, seq) sort order — the
// engine's determinism guarantee that ties break by schedule order.
func TestEventHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(500)
		s := newSched()
		ref := make([]event, 0, n)
		for i := 0; i < n; i++ {
			// Coarse times force frequent ties so seq ordering is exercised.
			ev := event{t: float64(rng.Intn(40)), seq: uint64(i + 1), a: int32(i)}
			s.push(ev)
			ref = append(ref, ev)
		}
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].t != ref[j].t {
				return ref[i].t < ref[j].t
			}
			return ref[i].seq < ref[j].seq
		})
		for i, want := range ref {
			got := s.pop()
			if got.t != want.t || got.seq != want.seq || got.a != want.a {
				t.Fatalf("trial %d: pop %d = (t=%v seq=%d), want (t=%v seq=%d)",
					trial, i, got.t, got.seq, want.t, want.seq)
			}
		}
		if s.len() != 0 {
			t.Fatalf("trial %d: scheduler not drained, %d left", trial, s.len())
		}
	}
}

// TestEventHeapInterleavedPushPop mixes pushes and pops, mirroring the
// engine's real access pattern, and checks the popped stream never goes
// backwards in (t, seq).
func TestEventHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := newSched()
	var seq uint64
	lastT, lastSeq := math.Inf(-1), uint64(0)
	pops := 0
	for step := 0; step < 5000; step++ {
		if s.len() == 0 || rng.Intn(3) > 0 {
			seq++
			// Push times never before the last popped time, as the engine
			// guarantees (no scheduling into the past).
			base := lastT
			if math.IsInf(base, -1) {
				base = 0
			}
			s.push(event{t: base + float64(rng.Intn(10)), seq: seq})
		} else {
			got := s.pop()
			pops++
			if got.t < lastT || (got.t == lastT && got.seq <= lastSeq) {
				t.Fatalf("step %d: pop (t=%v seq=%d) after (t=%v seq=%d)",
					step, got.t, got.seq, lastT, lastSeq)
			}
			lastT, lastSeq = got.t, got.seq
		}
	}
	if pops == 0 {
		t.Fatal("no pops exercised")
	}
}

// TestSchedBurstDrain covers the install-time shape: a large burst of
// pushes before any pop, then a full drain, every event cascading down
// from the top buckets.
func TestSchedBurstDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var ref refHeap
	s := newSched()
	var seq uint64
	for i := 0; i < 3*4096; i++ {
		seq++
		ev := event{t: rng.Float64() * 1e4, seq: seq}
		ref.push(ev)
		s.push(ev)
	}
	for s.len() > 0 {
		checkSameOrder(t, &ref, &s)
	}
}

// TestSchedAllTies drains a pending set where every event shares one
// timestamp — what a zero-delay link produces — asserting pure seq order.
// The ties first reach bucket 0 together, by redistribution; more ties
// pushed at the clock during the drain must queue behind them.
func TestSchedAllTies(t *testing.T) {
	s := newSched()
	const n = 4196
	seq := uint64(0)
	for i := 0; i < n; i++ {
		seq++
		s.push(event{t: 5, seq: seq})
	}
	popped := uint64(0)
	for s.len() > 0 {
		e := s.pop()
		popped++
		if e.seq != popped {
			t.Fatalf("tie order broken: pop %d returned seq %d", popped, e.seq)
		}
		if seq < 2*n {
			seq++
			s.push(event{t: 5, seq: seq})
		}
	}
	if popped != 2*n {
		t.Fatalf("drained %d events, want %d", popped, 2*n)
	}
}

// TestSchedSteadyStateZeroAlloc pins the zero-allocation contract of the
// scheduler's steady state: once the buckets are warm, a push/pop cycle
// at constant occupancy allocates nothing (the event-loop equivalent is
// one schedule per processed event).
func TestSchedSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newSched()
	var seq uint64
	now := 0.0
	for i := 0; i < 8192; i++ {
		seq++
		s.push(event{t: now + rng.ExpFloat64(), seq: seq})
	}
	// Warm the bucket capacities through a few full occupancy cycles.
	for i := 0; i < 8*8192; i++ {
		e := s.pop()
		now = e.t
		seq++
		s.push(event{t: now + rng.ExpFloat64(), seq: seq})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := s.pop()
		now = e.t
		seq++
		s.push(event{t: now + rng.ExpFloat64(), seq: seq})
	})
	if allocs > 0 {
		t.Fatalf("scheduler steady state allocates: %v allocs per push/pop cycle", allocs)
	}
}

// p0Clocks lists the rate of every clock one P0 source holds armed at
// its mean populations: the user-arrival clock, each user's departure
// and per-type spawn clocks, and each application's departure and
// per-message-type emission clocks.
func p0Clocks() []float64 {
	m := core.PaperParams(20)
	app := m.Apps[0]
	users := m.Lambda / m.Mu
	apps := users * float64(len(m.Apps)) * app.Lambda / app.Mu
	rates := []float64{m.Lambda}
	for i := 0; i < int(math.Round(users)); i++ {
		rates = append(rates, m.Mu)
		for range m.Apps {
			rates = append(rates, app.Lambda)
		}
	}
	for i := 0; i < int(math.Round(apps)); i++ {
		rates = append(rates, app.Mu)
		for _, msg := range app.Messages {
			rates = append(rates, msg.Lambda)
		}
	}
	return rates
}

// BenchmarkSchedHold is the classic hold model on P0's clock mix: each
// op pops the minimum and re-arms the same clock at now plus an
// exponential draw at that clock's rate, so the pending set keeps its
// size and composition. 200 pending events is one source's future event
// list; 19,500 is a 128-source aggregate's. Draws come from a fixed
// table so the op times the scheduler, not the RNG; allocs/op is 0 at
// steady state.
func BenchmarkSchedHold(b *testing.B) {
	rates := p0Clocks()
	rng := rand.New(rand.NewSource(1))
	draws := make([]float64, 1<<12)
	for i := range draws {
		draws[i] = rng.ExpFloat64()
	}
	for _, pending := range []int{200, 19500} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			s := newSched()
			var seq uint64
			k := 0
			hold := func() {
				e := s.pop()
				seq++
				k = (k + 1) & (len(draws) - 1)
				s.push(event{t: e.t + draws[k]/rates[e.a], seq: seq, a: e.a})
			}
			for i := 0; i < pending; i++ {
				seq++
				k = (k + 1) & (len(draws) - 1)
				c := int32(i % len(rates))
				s.push(event{t: draws[k] / rates[c], seq: seq, a: c})
			}
			for i := 0; i < 20*pending; i++ {
				hold()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold()
			}
		})
	}
}
