// Package hap is a Go implementation of the HAP (Hierarchical Arrival
// Process) traffic model from Lin, Tsai, Huang and Gerla, "HAP: A New
// Model for Packet Arrivals" (SIGCOMM '93), together with the paper's
// complete analysis and simulation apparatus.
//
// A HAP models a network node's message arrivals as the product of three
// modulating levels — users arrive and depart, present users invoke
// applications, and active applications emit messages — which makes the
// process an infinite-state MMPP with both short- and long-term
// correlation. The package exposes:
//
//   - the model types and closed forms (Model, TwoLevel/ON-OFF, HAP-CS);
//   - the paper's three HAP/M/1 solutions plus an exact matrix-geometric
//     solver (Solve* functions);
//   - a discrete-event simulator (Simulate* functions);
//   - admission-control helpers built on the closed forms;
//   - parameter estimation from observed packet traces (FitTrace) — the
//     closed forms run in reverse.
//
// Quick start:
//
//	m := hap.NewSymmetric(0.0055, 0.001, 0.01, 0.01, 0.1, 20, 5, 3)
//	fmt.Println(m.MeanRate())           // 8.25 messages/s (Equation 4)
//	res, _ := hap.Solve2(m)             // closed-form G/M/1 solution
//	simRes := hap.Simulate(m, hap.SimConfig{Horizon: 1e5, Seed: 1})
//
// The deeper machinery (per-package solvers, MMPP construction, the
// experiment harness) lives under internal/; the cmd/ binaries and
// examples/ programs exercise it end to end.
package hap

import (
	"context"

	"hap/internal/admission"
	"hap/internal/core"
	"hap/internal/fit"
	"hap/internal/haperr"
	"hap/internal/net"
	"hap/internal/obs"
	"hap/internal/sim"
	"hap/internal/solver"
)

// Sentinel errors shared across the library; test with errors.Is. Every
// solver and simulation entry point classifies its failures with these (or
// a wrapped context error for cancellation) instead of panicking.
var (
	// ErrBadParameter classifies invalid user-supplied parameters.
	ErrBadParameter = haperr.ErrBadParameter
	// ErrUnstable reports a queue with ρ >= 1 — no steady state exists.
	ErrUnstable = haperr.ErrUnstable
	// ErrNotConverged reports an exhausted iteration budget.
	ErrNotConverged = haperr.ErrNotConverged
	// ErrTrivialRoot reports a σ iteration that collapsed onto the trivial
	// fixed point σ = 1 despite a stable load.
	ErrTrivialRoot = haperr.ErrTrivialRoot
)

// Diag is the convergence-diagnostics record every iterative result
// carries (see SolveResult.Diag).
type Diag = haperr.Diag

// ExitCode maps an error to the cmd/ binaries' shared exit-code
// convention: 0 OK, 1 error, 2 usage (any error wrapping
// ErrBadParameter), 3 unstable, 4 not converged, 5 cancelled.
func ExitCode(err error) int { return haperr.ExitCode(err) }

// Model is a 3-level HAP (see internal/core for the full API).
type Model = core.Model

// AppType is one application class of a Model.
type AppType = core.AppType

// MessageType is one message class of an application type.
type MessageType = core.MessageType

// TwoLevel is the 2-level HAP, equivalently the classical ON-OFF model.
type TwoLevel = core.TwoLevel

// CSModel is the client-server extension (HAP-CS).
type CSModel = core.CSModel

// CSAppType is one application class of a CSModel.
type CSAppType = core.CSAppType

// CSMessageType is one request/response message class.
type CSMessageType = core.CSMessageType

// Level selects a modulating level for Scale/ScaleHolding.
type Level = core.Level

// The three modulating levels.
const (
	LevelUser    = core.LevelUser
	LevelApp     = core.LevelApp
	LevelMessage = core.LevelMessage
)

// NewSymmetric builds the paper's simplified HAP with l identical
// application types of fanout identical message types:
// user (λ, μ), application (λ', μ'), message (λ”, μ”).
func NewSymmetric(lambda, mu, lambdaApp, muApp, lambdaMsg, muMsg float64, l, fanout int) *Model {
	return core.NewSymmetric(lambda, mu, lambdaApp, muApp, lambdaMsg, muMsg, l, fanout)
}

// NewOnOff builds a 2-level HAP / ON-OFF superposition model.
func NewOnOff(lambda, mu, msgLambda, msgMu float64) *TwoLevel {
	return core.NewOnOff(lambda, mu, msgLambda, msgMu)
}

// PaperParams returns the Section 4 parameter set with the given message
// service rate (λ̄ = 8.25).
func PaperParams(muMsg float64) *Model { return core.PaperParams(muMsg) }

// SolveResult is a solved HAP/M/1 queue.
type SolveResult = solver.Result

// SolveOptions tunes the solvers; the zero value picks defaults.
type SolveOptions = solver.Options

// Solve2 runs the paper's Solution 2 (closed-form interarrival law +
// G/M/1 σ fixed point) — fast enough for on-line admission control.
func Solve2(m *Model) (SolveResult, error) { return solver.Solution2(m, nil) }

// Solve1 runs Solution 1 (truncated modulator steady state + exact
// exponential-mixture transform).
func Solve1(m *Model) (SolveResult, error) { return solver.Solution1(m, nil) }

// Solve0 runs the brute-force Solution 0 (truncated joint chain swept by
// Gauss–Seidel) with the given options.
func Solve0(m *Model, opts *SolveOptions) (SolveResult, error) { return solver.Solution0(m, opts) }

// SolveExact runs the matrix-geometric (Neuts) solution: exact in the
// queue dimension, truncated only in the modulator.
func SolveExact(m *Model, opts *SolveOptions) (SolveResult, error) {
	return solver.Solution0MG(m, opts)
}

// SolvePoisson returns the equal-rate M/M/1 baseline.
func SolvePoisson(m *Model) (SolveResult, error) { return solver.Poisson(m) }

// SolveBounded runs Solution 2 with the user and application populations
// admission-capped (Figure 20).
func SolveBounded(m *Model, maxUsers, maxApps int) (SolveResult, error) {
	return solver.Solution2Bounded(m, maxUsers, maxApps, nil)
}

// SimConfig drives a simulation run.
type SimConfig = sim.Config

// SimMeasure selects the statistics a run collects.
type SimMeasure = sim.MeasureConfig

// SimResult is a completed simulation.
type SimResult = sim.RunResult

// Simulate runs the discrete-event simulation of the full hierarchy
// feeding a single exponential server.
func Simulate(m *Model, cfg SimConfig) *SimResult { return sim.RunHAP(m, cfg) }

// SimulatePoisson runs the Poisson baseline at the given rate and service
// rate.
func SimulatePoisson(rate, muMsg float64, cfg SimConfig) *SimResult {
	return sim.RunPoisson(rate, muMsg, cfg)
}

// SimulateOnOff runs the 2-level / ON-OFF model.
func SimulateOnOff(tl *TwoLevel, cfg SimConfig) *SimResult { return sim.RunOnOff(tl, cfg) }

// SimulateCS runs the client-server model.
func SimulateCS(m *CSModel, cfg SimConfig) *SimResult { return sim.RunCS(m, cfg) }

// SimReplicated aggregates independent replications of one scenario.
type SimReplicated = sim.ReplicatedResult

// SimulateReplications runs n independent replications of the model across
// workers (0 = all cores) and merges their measurements; replication i is
// seeded from (cfg.Seed, i) so the aggregate is bit-identical for every
// worker count. A non-nil ctx cancels the fan-out and the runs promptly;
// the aggregate then covers whatever completed, with the context error
// returned. A non-positive n is rejected with ErrBadParameter.
func SimulateReplications(ctx context.Context, m *Model, cfg SimConfig, n, workers int) (*SimReplicated, error) {
	return sim.ReplicateRunsContext(ctx, n, cfg.Seed, workers, func(rep int, seed int64) *SimResult {
		c := cfg
		c.Seed = seed
		if c.Ctx == nil {
			c.Ctx = ctx
		}
		return sim.RunHAP(m, c)
	})
}

// SimShardedConfig drives a sharded aggregate simulation.
type SimShardedConfig = sim.ShardedConfig

// SimSharded is a completed sharded aggregate simulation.
type SimSharded = sim.ShardedResult

// SimulateSharded simulates n independent HAP sources (each feeding its
// own exponential server) partitioned across per-core engines. Source i
// is seeded from (cfg.Seed, i) only, so the merged result is bit-identical
// for every cfg.Shards value — shard count changes wall-clock time, never
// the statistics. This is the multi-core path for the paper's aggregate
// experiments; see SimulateReplications for replicating one scenario.
func SimulateSharded(m *Model, n int, cfg SimShardedConfig) *SimSharded {
	return sim.RunShardedHAP(m, n, cfg)
}

// SimulateShardedOnOff is SimulateSharded for the 2-level / ON-OFF model.
func SimulateShardedOnOff(tl *TwoLevel, n int, cfg SimShardedConfig) *SimSharded {
	return sim.RunShardedOnOff(tl, n, cfg)
}

// NetTopology is a queueing network: nodes (single-server queues) joined
// by directed links, built literally or with NetTandem/NetFanIn/NetGrid.
type NetTopology = net.Topology

// NetNode is one store-and-forward node of a NetTopology.
type NetNode = net.Node

// NetLink is a directed edge of a NetTopology.
type NetLink = net.Link

// NetIngress binds one external traffic source to an entry node.
type NetIngress = net.Ingress

// NetConfig drives a network simulation run.
type NetConfig = net.Config

// NetResult is a completed network run (per-node measurements, packet
// accounting, end-to-end sojourn/hop statistics).
type NetResult = net.Result

// NetTandem builds a serial line of nodes ending in a sink.
func NetTandem(name string, mus []float64, buffer int) *NetTopology {
	return net.Tandem(name, mus, buffer)
}

// NetFanIn builds k edge nodes all feeding one bottleneck — the paper's
// superposition scenario made spatial.
func NetFanIn(name string, k int, edgeMu, bottleneckMu float64, edgeBuffer, bottleneckBuffer int) *NetTopology {
	return net.FanIn(name, k, edgeMu, bottleneckMu, edgeBuffer, bottleneckBuffer)
}

// NetGrid builds a w×h mesh with bidirectional 4-neighbour links and
// shortest-path routing.
func NetGrid(name string, w, h int, mu float64, buffer int) *NetTopology {
	return net.Grid(name, w, h, mu, buffer)
}

// NetHAPIngress attaches a 3-level HAP source at a node; dst >= 0 routes
// along shortest paths, dst < 0 walks link weights to a sink.
func NetHAPIngress(m *Model, node, dst int) NetIngress { return net.HAPIngress(m, node, dst) }

// NetPoissonIngress attaches a Poisson source at a node.
func NetPoissonIngress(rate float64, node, dst int) NetIngress {
	return net.PoissonIngress(rate, node, dst)
}

// NetOnOffIngress attaches a 2-level / ON-OFF source at a node.
func NetOnOffIngress(tl *TwoLevel, node, dst int) NetIngress { return net.OnOffIngress(tl, node, dst) }

// SimulateNetwork routes the ingress traffic over the topology on a single
// engine: every node is a station with its own measurements, packets carry
// entry time, hop count and path, and the result reports per-node and
// end-to-end statistics. Results are a pure function of (topology,
// ingresses, cfg.Seed) — bit-identical on every machine and worker count.
func SimulateNetwork(t *NetTopology, ings []NetIngress, cfg NetConfig) *NetResult {
	return net.Run(t, ings, cfg)
}

// SimulateNetworkReplicated runs n independent replications of the network
// across workers (0 = all cores) and merges them in replication order;
// replication i is seeded from (cfg.Seed, i), so the merge is
// bit-identical for every worker count.
func SimulateNetworkReplicated(t *NetTopology, ings []NetIngress, cfg NetConfig, n, workers int) *NetResult {
	return net.RunReplicated(t, ings, cfg, n, workers)
}

// MaxWorkload finds the largest user arrival-rate multiplier whose
// Solution-2 delay meets the target (admission control).
func MaxWorkload(m *Model, targetDelay float64) (factor, delay float64, err error) {
	return admission.MaxWorkload(m, targetDelay, 0, 0)
}

// RequiredBandwidth finds the smallest service rate whose Solution-2 delay
// meets the target (bandwidth allocation).
func RequiredBandwidth(m *Model, targetDelay float64) (float64, error) {
	return admission.RequiredBandwidth(m, targetDelay, 0)
}

// DelayQuantiles computes exact sojourn-time quantiles (e.g. the p99) of
// HAP/M/1 from the matrix-geometric solution — what an SLO needs beyond
// the mean.
func DelayQuantiles(m *Model, opts *SolveOptions, ps ...float64) ([]float64, error) {
	return solver.DelayQuantiles(m, opts, ps...)
}

// FitOptions tunes FitTrace: the declared service rate and HAP tree
// shape, the EM budget, and the candidate model set.
type FitOptions = fit.Options

// FitEMOptions tunes the Baum-Welch MMPP2 fitter inside FitTrace.
type FitEMOptions = fit.EMOptions

// FitReport is a full model-selection run over one trace: the trace's
// observational summary, every attempted candidate ranked by BIC, and the
// name of the winner.
type FitReport = fit.Report

// FitCandidate is one attempted model class inside a FitReport.
type FitCandidate = fit.Candidate

// TraceSummary is the observational statistics a fit consumed: rate,
// interarrival c², the IDC-versus-window curve, and burst structure.
type TraceSummary = fit.Summary

// FitTrace estimates arrival-process models from raw arrival timestamps
// (seconds, need not be sorted) and reports which model class the trace
// supports: Poisson, ON-OFF (2-level HAP), symmetric 3-level HAP, and a
// 2-state MMPP fitted by EM. It is the reverse direction of the package's
// closed forms — Simulate generates arrivals from parameters, FitTrace
// recovers parameters from arrivals. Cancellation via ctx interrupts the
// EM pass; failed candidates are reported in place, never panicked.
//
//	rep, err := hap.FitTrace(ctx, times, hap.FitOptions{AppTypes: 5, Fanout: 3})
//	fmt.Println(rep.Best, rep.BestCandidate().Rate)
func FitTrace(ctx context.Context, times []float64, opt FitOptions) (*FitReport, error) {
	return fit.Fit(ctx, times, opt)
}

// Metrics returns a point-in-time snapshot of every runtime metric the
// library publishes — event-loop throughput, solver iteration and outcome
// counters, generator send/receive totals — as a flat map keyed by the
// Prometheus series name (labelled series append their rendered label set).
// The same data is served live by the cmd/ binaries' -metrics flag; this
// accessor is for embedding callers that want to poll in-process instead.
func Metrics() map[string]float64 { return obs.Default.Snapshot() }

// MetricsServer is a live metrics HTTP server (see ServeMetrics).
type MetricsServer = obs.Server

// ServeMetrics serves the library's runtime metrics over HTTP on addr
// (":0" picks a free port): Prometheus text on /metrics, JSON on
// /debug/vars. Close the returned server when done.
func ServeMetrics(addr string) (*MetricsServer, error) { return obs.Serve(addr) }
