package hap_test

import (
	"context"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"hap"
)

// The facade tests exercise the public API end to end the way the README
// quick start does.

func TestFacadeQuickStart(t *testing.T) {
	m := hap.NewSymmetric(0.0055, 0.001, 0.01, 0.01, 0.1, 20, 5, 3)
	if math.Abs(m.MeanRate()-8.25) > 1e-9 {
		t.Fatalf("mean rate = %v", m.MeanRate())
	}
	res, err := hap.Solve2(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 || res.Sigma <= 0 || res.Sigma >= 1 {
		t.Fatalf("implausible solution %+v", res)
	}
	simRes := hap.Simulate(m, hap.SimConfig{Horizon: 20000, Seed: 1})
	if simRes.Meas.MeanDelay() <= 0 {
		t.Fatal("simulation produced no delays")
	}
}

func TestFacadeSolversConsistent(t *testing.T) {
	m := hap.PaperParams(20)
	s1, err := hap.Solve1(m)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := hap.Solve2(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.Delay-s2.Delay)/s2.Delay > 0.01 {
		t.Errorf("solutions disagree: %v vs %v", s1.Delay, s2.Delay)
	}
	pois, err := hap.SolvePoisson(m)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Delay <= pois.Delay {
		t.Error("HAP must exceed the Poisson baseline")
	}
}

func TestFacadeBounded(t *testing.T) {
	m := hap.PaperParams(20)
	free, err := hap.SolveBounded(m, 60, 300)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := hap.SolveBounded(m, 12, 60)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Delay >= free.Delay {
		t.Error("admission caps should reduce delay")
	}
}

func TestFacadeOnOffAndCS(t *testing.T) {
	tl := hap.NewOnOff(0.5, 0.1, 10, 100)
	r := hap.SimulateOnOff(tl, hap.SimConfig{Horizon: 5000, Seed: 2})
	if r.Arrivals == 0 {
		t.Error("on-off produced no traffic")
	}
	cs := &hap.CSModel{
		Name: "demo", Lambda: 0.01, Mu: 0.002,
		Apps: []hap.CSAppType{{
			Name: "shell", Lambda: 0.02, Mu: 0.02,
			Messages: []hap.CSMessageType{{
				Name: "cmd", Lambda: 0.1, MuReq: 50, MuResp: 30, PResp: 0.9, PNext: 0.5,
			}},
		}},
	}
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	rc := hap.SimulateCS(cs, hap.SimConfig{Horizon: 50000, Seed: 3})
	if rc.Arrivals == 0 {
		t.Error("cs produced no traffic")
	}
}

func TestFacadeAdmission(t *testing.T) {
	m := hap.PaperParams(20)
	f, d, err := hap.MaxWorkload(m, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0 || d > 0.12 {
		t.Errorf("workload search: f=%v d=%v", f, d)
	}
	mu, err := hap.RequiredBandwidth(m, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if mu <= m.MeanRate() {
		t.Errorf("bandwidth %v below stability", mu)
	}
}

func TestFacadeLevelScaling(t *testing.T) {
	m := hap.PaperParams(20)
	up := m.Scale(hap.LevelMessage, 1.2)
	if math.Abs(up.MeanRate()-8.25*1.2) > 1e-9 {
		t.Errorf("scaled rate = %v", up.MeanRate())
	}
}

func TestFacadeDelayQuantiles(t *testing.T) {
	m := hap.PaperParams(20)
	qs, err := hap.DelayQuantiles(m, &hap.SolveOptions{MaxUsers: 8, MaxApps: 48}, 0.5, 0.9, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !(qs[0] < qs[1] && qs[1] < qs[2]) {
		t.Fatalf("quantiles not increasing: %v", qs)
	}
	// The p99 should dwarf the median under HAP burstiness.
	if qs[2] < 3*qs[0] {
		t.Errorf("p99 %v vs median %v — tail too thin for HAP", qs[2], qs[0])
	}
}

func TestFacadeMetrics(t *testing.T) {
	m := hap.PaperParams(20)
	if _, err := hap.Solve2(m); err != nil {
		t.Fatal(err)
	}
	hap.Simulate(m, hap.SimConfig{Horizon: 5000, Seed: 7})
	snap := hap.Metrics()
	for _, name := range []string{
		"hap_sim_events_total",
		"hap_sim_runs_total",
		"hap_solver_iterations_total",
	} {
		if snap[name] <= 0 {
			t.Errorf("%s = %v, want > 0 after a solve and a run", name, snap[name])
		}
	}

	srv, err := hap.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "hap_sim_events_total") {
		t.Errorf("/metrics page missing hap_sim_events_total:\n%.400s", body)
	}
}

func TestFacadeFitTrace(t *testing.T) {
	// Generate a Poisson trace through the facade simulator, fit it back,
	// and require the selector to recognise it — the README's
	// generate→fit round trip in miniature.
	res := hap.SimulatePoisson(8.25, 20, hap.SimConfig{
		Horizon: 4000, Seed: 21,
		Measure: hap.SimMeasure{KeepArrivalTimes: 40000},
	})
	times := res.Meas.Arrivals
	if len(times) < 10000 {
		t.Fatalf("only %d arrivals kept", len(times))
	}
	rep, err := hap.FitTrace(context.Background(), times, hap.FitOptions{
		Models: []string{"poisson", "onoff", "mmpp2"},
		EM:     hap.FitEMOptions{MaxIter: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != "poisson" {
		t.Fatalf("Best = %q, want poisson; candidates %+v", rep.Best, rep.Candidates)
	}
	best := rep.BestCandidate()
	if best == nil || math.Abs(best.Rate-8.25)/8.25 > 0.05 {
		t.Fatalf("fitted rate %+v, want ≈ 8.25", best)
	}
	// The EM options reach the MMPP2 fitter: its budget caps the run.
	var em hap.FitCandidate
	for _, c := range rep.Candidates {
		if c.Name == "mmpp2" {
			em = c
		}
	}
	if em.MMPP2 == nil || em.Diag.Iterations > 3 {
		t.Errorf("mmpp2 candidate %+v, want a fit within the 3-iteration budget", em)
	}
	var sum hap.TraceSummary = rep.Trace
	if sum.N != int64(len(times)) || math.Abs(sum.Rate-best.Rate) > 1e-9*best.Rate {
		t.Errorf("trace summary n=%d rate=%v, want n=%d at the Poisson fit's rate %v", sum.N, sum.Rate, len(times), best.Rate)
	}
	// The fit layer publishes its own metric family on the shared registry.
	snap := hap.Metrics()
	found := false
	for name, v := range snap {
		if strings.HasPrefix(name, "hap_fit_fits_total") && v > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no hap_fit_fits_total series incremented after FitTrace")
	}
}

// TestFacadeSimulateSharded runs README's multi-core entry point: the
// merged statistics of n sources are the same bits at any shard count.
func TestFacadeSimulateSharded(t *testing.T) {
	m := hap.PaperParams(20)
	run := func(shards int) *hap.SimSharded {
		r := hap.SimulateSharded(m, 4, hap.SimShardedConfig{Horizon: 2000, Seed: 5, Shards: shards})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r
	}
	one, two := run(1), run(2)
	if one.Arrivals == 0 || one.Merged.Delays.N() == 0 {
		t.Fatal("sharded run produced no traffic")
	}
	if one.Arrivals != two.Arrivals || one.Departures != two.Departures || one.Events != two.Events ||
		math.Float64bits(one.Merged.MeanDelay()) != math.Float64bits(two.Merged.MeanDelay()) {
		t.Errorf("shards 1 vs 2: arrivals %d/%d, departures %d/%d, events %d/%d, delay %v/%v",
			one.Arrivals, two.Arrivals, one.Departures, two.Departures, one.Events, two.Events,
			one.Merged.MeanDelay(), two.Merged.MeanDelay())
	}
}

// TestFacadeNetFanIn routes three Poisson sources through a fan-in whose
// 4-slot bottleneck is overloaded: every offered packet is delivered,
// dropped or still in flight.
func TestFacadeNetFanIn(t *testing.T) {
	topo := hap.NetFanIn("fanin", 3, 40, 10, 0, 4)
	var ings []hap.NetIngress
	for i := 0; i < 3; i++ {
		ings = append(ings, hap.NetPoissonIngress(4, i, 3))
	}
	r := hap.SimulateNetwork(topo, ings, hap.NetConfig{Horizon: 500, Seed: 9})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	e := r.E2E
	if e.Delivered == 0 || e.DroppedFull == 0 {
		t.Fatalf("delivered %d, dropped %d: want both", e.Delivered, e.DroppedFull)
	}
	if sum := e.Delivered + e.DroppedFull + e.DroppedHops + r.InFlight; e.Offered != sum {
		t.Errorf("offered %d != delivered %d + dropped %d+%d + in flight %d",
			e.Offered, e.Delivered, e.DroppedFull, e.DroppedHops, r.InFlight)
	}
}
