package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hap/internal/core"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileAndTenBeyondRule(t *testing.T) {
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	for _, c := range []struct {
		n      int
		p, v   float64
		report bool
	}{
		{99, 0, 0, false},    // p90 = 90 has 9 samples beyond it
		{100, 0.9, 90, true}, // p90 has 10 beyond; p99 only 1
		{999, 0.9, 900, true},
		{1000, 0.99, 990, true},
		{10000, 0.999, 9990, true},
	} {
		p, v, ok := tail(seq(c.n))
		if ok != c.report || p != c.p || v != c.v {
			t.Errorf("tail(1..%d) = (%v, %v, %v), want (%v, %v, %v)", c.n, p, v, ok, c.p, c.v, c.report)
		}
	}
	// Ties: samples equal to a percentile's value are not beyond it. Here
	// the top 30 of 100 samples tie at 90, so p90 = 90 has none beyond it.
	s := seq(100)
	for i := 70; i < 100; i++ {
		s[i] = 90
	}
	if got := beyond(s, 90); got != 0 {
		t.Errorf("beyond(90) with the top 30 tied at 90 = %d, want 0", got)
	}
	if _, _, ok := tail(s); ok {
		t.Error("tail reported a percentile with its tail all tied at the value")
	}
	// The same ties one step lower leave exactly ten beyond p90.
	s = seq(100)
	for i := 60; i < 90; i++ {
		s[i] = 90
	}
	if p, v, ok := tail(s); !ok || p != 0.9 || v != 90 {
		t.Errorf("tail with ties below the top ten = (%v, %v, %v), want (0.9, 90, true)", p, v, ok)
	}
}

func TestStudentT(t *testing.T) {
	for _, c := range []struct {
		conf float64
		df   int
		want float64
	}{
		{0.5, 1, 1},          // Cauchy quartile
		{0.99, 10, 3.1693},   // two-sided 99%
		{0.95, 30, 2.0423},   // two-sided 95%
		{0.9999, 23, 4.6932}, // the rate check's usual size
		{0.99, 1000, 2.581},  // near the normal 2.576
	} {
		if got := studentT(c.conf, c.df); math.Abs(got-c.want) > 5e-4*c.want+1e-3 {
			t.Errorf("studentT(%v, %d) = %.5f, want %.4f", c.conf, c.df, got, c.want)
		}
	}
}

func TestCycleDueAndCoveringDecision(t *testing.T) {
	const refit = 3
	start := time.Unix(100, 0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sch := &lbSchedule{due: []time.Duration{ms(1), ms(2), ms(3), ms(5), ms(8), ms(13), ms(21), ms(34), ms(55), ms(89)}}
	// Cycle k is due with the stream's (k·refit)-th packet.
	for k, want := range map[int]time.Duration{1: ms(3), 2: ms(13), 3: ms(55)} {
		if got := cycleDue(sch, refit, k, start); !got.Equal(start.Add(want)) {
			t.Errorf("cycle %d due at %v, want %v", k, got.Sub(start), want)
		}
	}
	if got := cyclesIn(sch, refit, start, start.Add(ms(4)), start.Add(ms(55))); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("cycles due in [4ms, 55ms) = %v, want [2]", got)
	}

	d := decisions{refit: refit}
	at := func(n int) time.Time { return start.Add(ms(n)) }
	d.observe(0, at(1)) // warming
	d.observe(3, at(4)) // cycle 1 visible
	d.observe(3, at(6)) // nothing new
	// Cycle 2 was skipped: the first read showing it is cycle 3's
	// decision, which covers both.
	d.observe(9, at(60))
	want := []time.Time{at(4), at(60), at(60)}
	if !reflect.DeepEqual(d.seen, want) {
		t.Fatalf("seen = %v, want %v", d.seen, want)
	}
	if lat := d.seen[1].Sub(cycleDue(sch, refit, 2, start)); lat != ms(47) {
		t.Errorf("skipped cycle 2 latency %v, want 47ms (due at 13ms, covered at 60ms)", lat)
	}
}

func TestScheduleRepeatsPerSeed(t *testing.T) {
	m := core.PaperParams(p0Mu)
	const n = 2000
	a, err := makeSchedule(m, 7, lbRate, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSchedule(m, 7, lbRate, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c, err := makeSchedule(m, 8, lbRate, n)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.due, c.due) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// The first n packets span n/rate seconds: the stated rate.
	if got, want := a.due[n-1], time.Duration(n/lbRate*float64(time.Second)); got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("packet %d due at %v, want %v", n, got, want)
	}
	order := mergeSchedules([]*lbSchedule{a, c})
	if len(order) != len(a.due)+len(c.due) {
		t.Fatalf("merged %d packets, want %d", len(order), len(a.due)+len(c.due))
	}
	next := []int{0, 0}
	for i, it := range order {
		if i > 0 && it.due < order[i-1].due {
			t.Fatalf("merged order goes back in time at %d", i)
		}
		if it.seq != next[it.stream] {
			t.Fatalf("stream %d packet %d out of sequence", it.stream, it.seq)
		}
		next[it.stream]++
	}
}

// smallSizes shrink every workload for a dry run.
var smallSizes = sizes{offReps: 2, offHorizon: 5000, fitHorizon: 20000, muxHorizon: 500, muxWarm: 10}

func TestDryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("dry runs take seconds")
	}
	hapd := filepath.Join(t.TempDir(), "hapd")
	if out, err := exec.Command("go", "build", "-o", hapd, "hap/cmd/hapd").CombinedOutput(); err != nil {
		t.Fatalf("build hapd: %v\n%s", err, out)
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				r := newRun(1, 0.2, traced, hapd, smallSizes)
				err := workloads[name](r)
				for _, c := range r.cleanups {
					c()
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if len(r.failures) > 0 {
					t.Errorf("traced=%v failed checks: %v", traced, r.failures)
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Errorf("traced=%v: attempted %d, failed %d", traced, r.attempted, r.failed)
				}
				ms, err := r.metrics()
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if traced {
					if len(r.tr.spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					for _, m := range []string{"trace.op_ms", "residual.share", "mem.peak_rss_mb"} {
						if !(ms[m].Value > 0) {
							t.Errorf("traced %s = %v, want a positive value", m, ms[m].Value)
						}
					}
					continue
				}
				// End-to-end metrics are never 0: a bound relative to a
				// median of 0 would not be defined.
				for _, d := range endToEndMetrics {
					if !(ms[d.name].Value > 0) {
						t.Errorf("%s = %v, want a positive value", d.name, ms[d.name].Value)
					}
				}
			}
		})
	}
}

// TestManifestMatches keeps the metric tables the runs print from in step
// with BENCHMARK.json, which the benchmark is judged by.
func TestManifestMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		man  []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", man.EndToEnd, endToEndMetrics}, {"per_layer", man.PerLayer, perLayerMetrics}} {
		var got []metricDef
		for _, m := range c.man {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json %s = %v, the benchmark prints %v", c.kind, got, c.defs)
		}
	}
}
