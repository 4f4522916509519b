// Command hapbench is the repository's benchmark of record. One
// invocation runs one workload from a seed, measures for a given number
// of seconds, checks the program's outputs and the workload's regime,
// and prints one JSON result as its last line: the end-to-end metrics
// from an untraced run, or with -trace 1 the per-layer metrics and an
// "end-to-end = Σ layer self time + residual" table from a traced run.
// NOTES.md explains the workloads and how each per-layer number maps onto
// an end-to-end one. hapbench/run.sh builds it and hapd from source and
// runs it from the repository root:
//
//	bash hapbench/run.sh --workload p0-offline --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEndMetrics are the metrics an untraced run prints, as
// BENCHMARK.json names them. Every workload measures each: op_ms is one
// modeler loop on p0-offline, one sharded plus one fan-in run on mux-128
// and the median decision latency on hapd-loopback.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
}

// perLayerMetrics are the metrics a traced run prints, as BENCHMARK.json
// names them. Every workload prints each; one that belongs to a layer the
// workload does not run reads 0. The shares split trace.op_ms, the mean
// operation of the traced half, into the layers' self times.
var perLayerMetrics = []metricDef{
	{"trace.op_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"sim.share", "ratio"},
	{"par.share", "ratio"},
	{"net.share", "ratio"},
	{"fit.share", "ratio"},
	{"solver.share", "ratio"},
	{"ctrl.share", "ratio"},
	{"residual.share", "ratio"},
	{"sim.msgs_per_s", "msgs/s"},
	{"sim.events_per_msg", "events/msg"},
	{"sim.pending", "events"},
	{"sim.allocs_per_kmsg", "allocs/kmsg"},
	{"net.pkts_per_s", "pkts/s"},
	{"net.events_per_pkt", "events/pkt"},
	{"net.allocs_per_kpkt", "allocs/kpkt"},
	{"fit.arrivals_per_s", "arrivals/s"},
	{"fit.em_iters", "iterations"},
	{"fit.allocs", "allocs"},
	{"solver.iterations", "iterations"},
	{"markov.sweeps", "sweeps"},
	{"gm1.sigma_iters", "iterations"},
	{"ctrl.window_n", "timestamps"},
	{"ctrl.cycles_due", "cycles"},
	{"ctrl.skipped", "cycles"},
	{"ctrl.miss_share", "ratio"},
	{"ctrl.useful_share", "ratio"},
	{"ctrl.p90_over_p50", "ratio"},
	{"ctrl.p99_over_p50", "ratio"},
	{"ctrl.http_share", "ratio"},
	{"netgen.loss_share", "ratio"},
	{"netgen.lost_blocked", "packets"},
	{"loadgen.offered_pps", "pkts/s"},
	{"loadgen.late_share", "ratio"},
	{"mem.peak_rss_mb", "MB"},
}

// run is one invocation: its settings, its tracer, and what it measured.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	hapd    string // hapd binary, for hapd-loopback
	tr      *tracer
	sz      sizes

	e2e, layer map[string]float64
	attempted  int
	failed     int
	failures   []string // correctness checks and regime preconditions that failed
	overheads  map[string]float64
	cleanups   []func() // run at exit on every path: stop what the run started
}

func newRun(seed int64, seconds float64, traced bool, hapd string, sz sizes) *run {
	return &run{
		seed: seed, seconds: seconds, traced: traced, hapd: hapd, tr: newTracer(), sz: sz,
		e2e: map[string]float64{}, layer: map[string]float64{}, overheads: map[string]float64{},
	}
}

// check records a failed correctness check or regime precondition.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) endToEnd(name string, v float64) { r.e2e[name] = v }
func (r *run) perLayer(name string, v float64) { r.layer[name] = v }

// metrics returns the result's metrics: every end-to-end one, or traced
// every per-layer one with 0 for a layer the workload does not run. It
// fails if the workload left an end-to-end metric unmeasured or measured
// a metric BENCHMARK.json does not name.
func (r *run) metrics() (map[string]metric, error) {
	defs, vals := endToEndMetrics, r.e2e
	if r.traced {
		defs, vals = perLayerMetrics, r.layer
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the manifest", name)
		}
	}
	return out, nil
}

// sizes are the workloads' input sizes; tests run the workloads small.
type sizes struct {
	offReps    int     // replications per p0-offline simulation unit
	offHorizon float64 // model seconds per replication
	fitHorizon float64 // model seconds of p0-offline's fitted trace
	muxHorizon float64 // model seconds per mux-128 run
	muxWarm    float64 // model seconds of mux-128's warm-up pass
}

// fullSizes are the benchmark's. A p0-offline unit simulates ~2.2M
// messages; its trace has ~1.7M arrivals, of which EM sees its default
// 200k-sample prefix. A mux-128 run serves ~2.1M messages; the horizon
// is part of the workload, since events/s falls as a run gets longer.
var fullSizes = sizes{offReps: 4, offHorizon: 62500, fitHorizon: 2e5, muxHorizon: 2000, muxWarm: 100}

// setupRepeats is how many times a workload sets up; setup_s is the
// median, which keeps slow starts from moving the metric.
const setupRepeats = 5

// setUp runs set-up i for i < setupRepeats, each returning its seconds,
// and reports their median as setup_s. Each starts from a collected heap,
// so no set-up pays for collecting another's garbage, and so does the
// measured phase after the last.
func (r *run) setUp(once func(i int) (float64, error)) error {
	setup := make([]float64, setupRepeats)
	for i := range setup {
		runtime.GC()
		var err error
		if setup[i], err = once(i); err != nil {
			return err
		}
	}
	runtime.GC()
	r.endToEnd("setup_s", median(setup))
	return nil
}

// phase runs unit (with the unit index and the id of its root span) until
// budget seconds have passed, at least once, and not starting a unit that
// would overrun the budget by the previous unit's length. An untraced run
// spends the whole budget untraced. A traced run spends the first half
// untraced and the second half traced, over the same unit indices, so the
// two halves do the same work and their difference is the tracing
// overhead. It returns the wall seconds of each unit of the reported half.
func (r *run) phase(name string, budget float64, unit func(i, root int) error) ([]float64, error) {
	half := func(b float64, traced bool) ([]float64, error) {
		r.tr.on.Store(traced)
		defer r.tr.on.Store(false)
		var walls []float64
		start := time.Now()
		for i := 0; ; i++ {
			t0 := time.Now()
			root := r.tr.begin(name, residualLayer, "phase:"+name, 0, i)
			err := unit(i, root)
			r.tr.end(root)
			walls = append(walls, time.Since(t0).Seconds())
			if err != nil {
				return walls, err
			}
			if time.Since(start).Seconds()+walls[i] > b {
				return walls, nil
			}
		}
	}
	if !r.traced {
		return half(budget, false)
	}
	plain, err := half(budget/2, false)
	if err != nil {
		return nil, err
	}
	traced, err := half(budget/2, true)
	if err != nil {
		return nil, err
	}
	var sp, st float64
	for i := 0; i < len(plain) && i < len(traced); i++ {
		sp += plain[i]
		st += traced[i]
	}
	r.overheads[name] = st/sp - 1
	return traced, nil
}

// layerShares reports trace.op_ms and every layer's share of it from the
// traced halves of the phases, and the mean tracing overhead.
func (r *run) layerShares(phases ...string) {
	op, share := r.tr.shares(phases...)
	r.perLayer("trace.op_ms", 1000*op)
	for l, v := range share {
		r.perLayer(l+".share", v)
	}
	var o float64
	for _, ph := range phases {
		o += r.overheads[ph]
	}
	r.perLayer("trace.overhead_share", o/float64(len(phases)))
}

// peakRSSMB returns the peak resident set of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

var workloads = map[string]func(*run) error{
	"p0-offline":    runOffline,
	"mux-128":       runMux,
	"hapd-loopback": runLoopback,
}

func main() {
	var (
		workload = flag.String("workload", "", "p0-offline | mux-128 | hapd-loopback")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs traced and prints per-layer metrics instead of end-to-end ones")
		hapd     = flag.String("hapd", "", "hapd binary (hapd-loopback)")
		spansDir = flag.String("spans", ".bench_build/spans", "directory a traced run writes its spans to")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || !(*seconds > 0) || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "hapbench: want -workload p0-offline|mux-128|hapd-loopback, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	r := newRun(*seed, *seconds, *traceOn == 1, *hapd, fullSizes)
	err := fn(r)
	for _, c := range r.cleanups {
		c()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hapbench:", err)
		os.Exit(1)
	}
	metrics, err := r.metrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hapbench:", err)
		os.Exit(1)
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	if r.traced {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "hapbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %s (%d)\n", path, len(r.tr.spans))
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "hapbench: check failed:", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hapbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
