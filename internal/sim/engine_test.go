package sim

import (
	"math"
	"testing"
	"unsafe"

	"hap/internal/dist"
)

// TestEventSize pins the scheduler's element at 40 bytes: (t, seq) plus
// the kind and four int32 payloads, no pointers. A pointer field would
// make the GC scan every pending event and bring back the slot clearing
// the scheduler's buckets do without.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 40", got)
	}
}

// TestQueueCompactionPreservesFIFODelays is a regression test for the
// sliding-window queue: a long busy period pushes qhead far past the
// compaction threshold, and packets must still leave in arrival order
// with exactly the sojourns of a Lindley replay of the same service
// stream, each served at its own rate. Arrivals come in as typed packet
// deliveries, the same path the network layer uses.
func TestQueueCompactionPreservesFIFODelays(t *testing.T) {
	const n = 500 // qhead crosses the >64, qhead*2>len(queue) threshold many times
	mu := func(pkt int32) float64 { return 1 + float64(pkt%3)/2 }
	meas := NewMeasurements(MeasureConfig{})
	e := NewEngine(1e6)
	st := e.AddStation(dist.NewStreams(1).Next(), meas)
	e.SetDeliverHook(func(st, pkt int32) { e.ArrivePacketAt(st, mu(pkt), 0, pkt) })
	var order []int32
	var sojourns []float64
	e.SetPacketDoneHook(func(_, pkt int32, _ int, sojourn float64) {
		order = append(order, pkt)
		sojourns = append(sojourns, sojourn)
	})
	// Burst of n arrivals 1 ms apart: the queue builds to ~n, then drains
	// at ~1.4 departures per second, compacting along the way.
	for i := 0; i < n; i++ {
		e.ScheduleDeliver(float64(i)*0.001, st, int32(i))
	}
	e.Run()
	if e.Departures() != n || len(order) != n {
		t.Fatalf("departures = %d (%d hooked), want %d", e.Departures(), len(order), n)
	}
	if got := e.StationQueueLen(st); got != 0 {
		t.Fatalf("queue not drained: %d", got)
	}
	// Lindley replay over an identical stream: each packet starts service
	// at max(its arrival, the previous departure).
	rng := dist.NewStreams(1).Next()
	var dep, sum float64
	for i := 0; i < n; i++ {
		if order[i] != int32(i) {
			t.Fatalf("departure %d is packet %d: FIFO order broken", i, order[i])
		}
		arr := float64(i) * 0.001
		dep = math.Max(arr, dep) + rng.ExpFloat64()/mu(int32(i))
		if sojourns[i] != dep-arr {
			t.Fatalf("packet %d sojourn %v, want Lindley %v", i, sojourns[i], dep-arr)
		}
		sum += dep - arr
	}
	if got, want := meas.MeanDelay(), sum/n; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean delay %v, want %v", got, want)
	}
}

// TestTruncatedRun checks the satellite fix: exhausting the event budget
// must mark the result truncated and close measurements at the reached
// clock, not the horizon.
func TestTruncatedRun(t *testing.T) {
	res := RunPoisson(100, 200, Config{Horizon: 1e9, Seed: 1, MaxEvents: 5000})
	if !res.Truncated {
		t.Fatal("budget-limited run not marked Truncated")
	}
	if res.Events > 5000 {
		t.Fatalf("event cap exceeded: %d", res.Events)
	}
	// The observation window must end where the run actually stopped:
	// ~5000 events at rate 100/s (two events per message) is a few tens of
	// simulated seconds, nowhere near the 1e9 horizon.
	if el := res.Meas.Queue.Elapsed(); el <= 0 || el > 1e3 {
		t.Fatalf("measurement window %v inconsistent with truncation point", el)
	}

	full := RunPoisson(100, 200, Config{Horizon: 10, Seed: 1})
	if full.Truncated {
		t.Fatal("horizon-complete run marked Truncated")
	}
	if el := full.Meas.Queue.Elapsed(); math.Abs(el-10) > 1e-9 {
		t.Fatalf("full run window %v, want 10", el)
	}
}

// TestMeasurementsMerge verifies the exact-combination contract of Merge
// against the component statistics of two independent runs.
func TestMeasurementsMerge(t *testing.T) {
	mcfg := MeasureConfig{Warmup: 10, TrackBusy: true, DelayHistBins: 20, DelayHistMax: 2}
	a := RunPoisson(5, 10, Config{Horizon: 2000, Seed: 1, Measure: mcfg})
	b := RunPoisson(5, 10, Config{Horizon: 3000, Seed: 2, Measure: mcfg})

	nA, nB := a.Meas.Delays.N(), b.Meas.Delays.N()
	meanA, meanB := a.Meas.MeanDelay(), b.Meas.MeanDelay()
	qA, qB := a.Meas.MeanQueue(), b.Meas.MeanQueue()
	elA, elB := a.Meas.Queue.Elapsed(), b.Meas.Queue.Elapsed()
	mountains := a.Meas.Busy.Mountains() + b.Meas.Busy.Mountains()
	histN := a.Meas.DelayH.N() + b.Meas.DelayH.N()

	a.Meas.Merge(b.Meas)
	m := a.Meas
	if m.Delays.N() != nA+nB {
		t.Fatalf("merged N = %d, want %d", m.Delays.N(), nA+nB)
	}
	wantMean := (meanA*float64(nA) + meanB*float64(nB)) / float64(nA+nB)
	if math.Abs(m.MeanDelay()-wantMean) > 1e-12 {
		t.Fatalf("merged mean %v, want %v", m.MeanDelay(), wantMean)
	}
	if math.Abs(m.Queue.Elapsed()-(elA+elB)) > 1e-9 {
		t.Fatalf("merged window %v, want %v", m.Queue.Elapsed(), elA+elB)
	}
	wantQ := (qA*elA + qB*elB) / (elA + elB)
	if math.Abs(m.MeanQueue()-wantQ) > 1e-9 {
		t.Fatalf("merged queue mean %v, want %v", m.MeanQueue(), wantQ)
	}
	if m.Busy.Mountains() != mountains {
		t.Fatalf("merged mountains %d, want %d", m.Busy.Mountains(), mountains)
	}
	if m.DelayH.N() != histN {
		t.Fatalf("merged histogram N %d, want %d", m.DelayH.N(), histN)
	}
}

// TestMergePerClass checks class-wise delay merging, including growing the
// receiver's class list.
func TestMergePerClass(t *testing.T) {
	a := RunPoisson(5, 10, Config{Horizon: 500, Seed: 3, Measure: MeasureConfig{ClassCount: 1}})
	b := RunPoisson(5, 10, Config{Horizon: 500, Seed: 4, Measure: MeasureConfig{ClassCount: 2}})
	n0 := a.Meas.ByClass[0].N() + b.Meas.ByClass[0].N()
	a.Meas.Merge(b.Meas)
	if len(a.Meas.ByClass) != 2 {
		t.Fatalf("class list not grown: %d", len(a.Meas.ByClass))
	}
	if a.Meas.ByClass[0].N() != n0 {
		t.Fatalf("class 0 N = %d, want %d", a.Meas.ByClass[0].N(), n0)
	}
}
