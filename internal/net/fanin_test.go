package net

import (
	"math"
	"testing"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/sim"
)

// TestFanInMatchesSuperposedQueue is the acceptance check for the fan-in
// multiplexer: k HAP sources forwarded through near-instant edge nodes
// into one bottleneck must reproduce the same k sources superposed
// directly onto a single HAP/M/1 queue — the paper's multiplexing scenario
// — within 2% on mean delay at equal load.
//
// The comparison is run at matched randomness, not just matched
// distributions: the reference queue derives its k arrival streams and its
// service stream exactly as Run derives source i's (SubSeed(seed, i)) and
// bottleneck node k's (SubSeed(seed, -1-k)) streams, so the two sample
// paths differ only by the ~1/edgeMu forwarding delay and the test is not
// hostage to HAP's slow long-memory convergence.
func TestFanInMatchesSuperposedQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation run")
	}
	const (
		k       = 4
		edgeMu  = 1e5
		bottMu  = 50.0
		horizon = 20000.0
		warmup  = 1000.0
		seed    = 8250
	)
	model := core.PaperParams(bottMu) // λ̄ = 8.25 per source → ρ = 4·8.25/50 = 0.66

	topo := FanIn("mux", k, edgeMu, bottMu, 0, 0)
	ings := make([]Ingress, k)
	for i := range ings {
		ings[i] = HAPIngress(model, i, k)
	}
	netRes := Run(topo, ings, Config{
		Horizon: horizon,
		Seed:    seed,
		Measure: sim.MeasureConfig{Warmup: warmup},
	})
	if netRes.Err != nil {
		t.Fatal(netRes.Err)
	}
	netDelay := netRes.PerNode[k].MeanDelay()

	// Reference: the same k sources superposed onto one station, streams
	// derived identically.
	meas := sim.NewMeasurements(sim.MeasureConfig{Warmup: warmup})
	eng := sim.NewEngine(horizon)
	st := eng.AddStation(dist.NewStreams(dist.SubSeed(seed, -1-k)).Next(), meas)
	for i := 0; i < k; i++ {
		src := sim.NewHAPSource(model, dist.NewStreams(dist.SubSeed(seed, i)).Next())
		src.Install(eng, st)
	}
	eng.Run()
	refDelay := meas.MeanDelay()

	if refDelay <= 0 || netDelay <= 0 {
		t.Fatalf("degenerate delays: net %v, ref %v", netDelay, refDelay)
	}
	if rel := math.Abs(netDelay-refDelay) / refDelay; rel > 0.02 {
		t.Errorf("fan-in bottleneck mean delay %.5f vs superposed reference %.5f: %.2f%% apart, want <= 2%%",
			netDelay, refDelay, 100*rel)
	}

	// The edge nodes must be transparent at equal load: everything offered
	// is forwarded downstream.
	for i := 0; i < k; i++ {
		if netRes.Node[i].Forwarded != netRes.Node[i].In {
			t.Errorf("edge %d forwarded %d of %d admitted", i, netRes.Node[i].Forwarded, netRes.Node[i].In)
		}
	}
	if netRes.E2E.DroppedFull != 0 || netRes.E2E.DroppedHops != 0 {
		t.Errorf("unbounded fan-in dropped packets: full=%d hops=%d", netRes.E2E.DroppedFull, netRes.E2E.DroppedHops)
	}
}
