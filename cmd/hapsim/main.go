// Command hapsim runs the discrete-event simulation of a symmetric HAP
// (or the equal-rate Poisson baseline) feeding an exponential server, and
// prints the measured statistics.
//
//	go run ./cmd/hapsim -horizon 1e6 -mu3 17 -busy
//	go run ./cmd/hapsim -source poisson -horizon 1e6
//	go run ./cmd/hapsim -horizon 1e5 -reps 8 -parallel 0   # replicated, all cores
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"hap/internal/cli"
	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/par"
	"hap/internal/sim"
	"hap/internal/trace"

	// Register the solver and netgen metric families so one scrape of any
	// binary shows the full hap_* namespace, present-but-zero when unused.
	_ "hap/internal/netgen"
	_ "hap/internal/solver"
)

func main() {
	var (
		source  = flag.String("source", "hap", "traffic source: hap | poisson | onoff")
		lambda  = flag.Float64("lambda", 0.0055, "user arrival rate λ")
		mu      = flag.Float64("mu", 0.001, "user departure rate μ")
		lambda2 = flag.Float64("lambda2", 0.01, "application invocation rate λ'")
		mu2     = flag.Float64("mu2", 0.01, "application completion rate μ'")
		lambda3 = flag.Float64("lambda3", 0.1, "message generation rate λ''")
		mu3     = flag.Float64("mu3", 17, "message service rate μ''")
		l       = flag.Int("l", 5, "number of application types")
		mm      = flag.Int("m", 3, "message types per application")
		horizon = flag.Float64("horizon", 1e6, "simulated seconds")
		warmup  = flag.Float64("warmup", 0, "warmup seconds to discard (default horizon/100)")
		seed    = flag.Int64("seed", 1, "random seed (replication i derives its own seed from this)")
		reps    = flag.Int("reps", 1, "independent replications to run and merge")
		workers = flag.Int("parallel", 1, "workers for replications: 0 = all cores, 1 = serial")
		shards  = flag.Int("shards", 0, "sharded aggregate: engines to spread the sources over (0 = off unless -sources is set, in which case all cores)")
		sources = flag.Int("sources", 0, "sharded aggregate: independent sources to simulate (0 = off unless -shards is set, in which case 8 per shard)")
		busy    = flag.Bool("busy", false, "track busy periods (mountains)")
		queue   = flag.Float64("queuetrace", 0, "queue trace sample interval in seconds (0 = off)")
		csvOut  = flag.String("csv", "", "write the queue trace to this CSV file")
		config  = flag.String("config", "", "JSON model file (hap source only; overrides the symmetric flags)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		timeout = flag.Duration("timeout", 0, "abort the simulation after this wall-clock budget (0 = none; ctrl-c also cancels)")
		metrics = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090 or 127.0.0.1:0)")
		perStat = flag.String("per-station", "", "write the per-source measurement breakdown of a sharded aggregate as JSON to this file ('-' = stdout; requires -shards/-sources)")
	)
	flag.Parse()
	cli.Main(cli.Options{Timeout: *timeout, Metrics: *metrics, CPUProfile: *cpuProf, MemProfile: *memProf}, func(ctx context.Context) error {
		if *warmup == 0 {
			*warmup = *horizon / 100
		}
		mcfg := sim.MeasureConfig{
			Warmup:             *warmup,
			TrackBusy:          *busy,
			KeepBusyPeriods:    *busy,
			MaxBusyRetained:    1 << 20,
			QueueTraceInterval: *queue,
		}
		// Ctrl-c (and an optional -timeout) cancel the context polled by
		// every replication's event loop; a cancelled run reports whatever
		// span it covered before exiting with the dedicated code.
		cfg := sim.Config{Horizon: *horizon, Seed: *seed, Measure: mcfg, Ctx: ctx}
		if err := cfg.Validate(); err != nil {
			return err
		}
		sharded := *shards > 0 || *sources > 0
		switch {
		case sharded && *reps > 1:
			return haperr.Badf("-shards/-sources runs one sharded aggregate; it cannot be combined with -reps")
		case !sharded && *perStat != "":
			return haperr.Badf("-per-station reports a sharded aggregate's per-source breakdown; it requires -shards or -sources")
		}
		src, err := newSource(*source, *config, *lambda, *mu, *lambda2, *mu2, *lambda3, *mu3, *l, *mm)
		if err != nil {
			return err
		}
		if sharded {
			return runSharded(ctx, src, *shards, *sources, mcfg, *horizon, *seed, *perStat)
		}
		fmt.Printf("source: %s\n", src.name)

		// Build a per-seed runner once; a single run and a replicated run
		// then share the exact same code path.
		run := func(seed int64) *sim.RunResult {
			c := cfg
			c.Seed = seed
			switch {
			case src.hap != nil:
				return sim.RunHAP(src.hap, c)
			case src.onoff != nil:
				return sim.RunOnOff(src.onoff, c)
			default:
				return sim.RunPoisson(src.rate, *mu3, c)
			}
		}
		if *reps > 1 {
			agg, err := sim.ReplicateRunsContext(ctx, *reps, *seed, *workers,
				func(rep int, seed int64) *sim.RunResult { return run(seed) })
			fmt.Printf("\n%d replications on %d workers, wall %v\n",
				*reps, par.Workers(*workers, *reps), agg.Elapsed)
			fmt.Printf("events %d, arrivals %d, departures %d\n",
				agg.Events, agg.Arrivals, agg.Departures)
			if agg.Skipped > 0 {
				fmt.Printf("warning: %d replications never started (cancelled)\n", agg.Skipped)
			}
			if agg.Truncated {
				fmt.Println("warning: at least one replication stopped before its horizon")
			}
			if agg.Merged != nil {
				fmt.Printf("mean delay         %.5g s ± %.3g (95%% CI over %d reps)\n",
					agg.Delay.Mean(), agg.HalfWidth, agg.Delay.N())
				fmt.Printf("pooled delay       %.5g s (std %.4g, max %.4g, n=%d)\n",
					agg.Merged.MeanDelay(), agg.Merged.Delays.Std(), agg.Merged.Delays.Max(),
					agg.Merged.Delays.N())
				fmt.Printf("mean queue length  %.5g (max %g)\n",
					agg.Merged.MeanQueue(), agg.Merged.Queue.Max())
			}
			return err
		}
		res := run(*seed)

		meas := res.Meas
		fmt.Printf("\nevents %d, arrivals %d, departures %d, wall %v\n",
			res.Events, res.Arrivals, res.Departures, res.Elapsed)
		if res.Truncated {
			fmt.Println("warning: run stopped before the horizon (event budget or cancellation)")
		}
		fmt.Printf("observed rate      %.5g msgs/s\n", meas.ObservedRate())
		fmt.Printf("mean delay         %.5g s (std %.4g, max %.4g)\n",
			meas.MeanDelay(), meas.Delays.Std(), meas.Delays.Max())
		fmt.Printf("mean queue length  %.5g (max %g)\n", meas.MeanQueue(), meas.Queue.Max())
		if *busy {
			bt := &meas.Busy
			fmt.Printf("busy periods       %d (busy fraction %.3g)\n", bt.Mountains(), bt.BusyFraction())
			fmt.Printf("  busy   mean %.4g var %.4g\n", bt.Busy.Mean(), bt.Busy.Var())
			fmt.Printf("  idle   mean %.4g var %.4g\n", bt.Idle.Mean(), bt.Idle.Var())
			fmt.Printf("  height mean %.4g var %.4g max %g\n", bt.Height.Mean(), bt.Height.Var(), bt.Height.Max())
			longest, tallest := bt.Peak()
			fmt.Printf("  longest mountain %.4g s, tallest %d messages\n", longest.Length(), tallest.Height)
		}
		if *queue > 0 && len(meas.QueueTrace) > 0 {
			xs := make([]float64, len(meas.QueueTrace))
			ys := make([]float64, len(meas.QueueTrace))
			for i, p := range meas.QueueTrace {
				xs[i], ys[i] = p.T, p.V
			}
			dx, dy := trace.Downsample(xs, ys, 600)
			fmt.Print(trace.Chart(trace.ChartOptions{
				Title: "queue length", XLabel: "time (s)", YLabel: "messages",
			}, trace.Line{Name: "queue", Xs: dx, Ys: dy}))
			if *csvOut != "" {
				if err := trace.WriteCSV(*csvOut,
					trace.Series{Name: "t", Values: xs},
					trace.Series{Name: "queue", Values: ys}); err != nil {
					return err
				}
				fmt.Printf("queue trace written to %s\n", *csvOut)
			}
		}
		return res.Err
	})
}

// source is the validated traffic -source names. hap carries a HAP (from
// -config or the symmetric flags) and onoff its two-level reduction;
// with neither, it is the HAP's equal-rate Poisson baseline at rate.
type source struct {
	hap   *core.Model
	onoff *core.TwoLevel
	rate  float64
	name  string // as the report prints it after "source: "
}

// newSource builds the validated source that a single run and a sharded
// aggregate simulate alike: the HAP from config when it is set, else from
// the symmetric rates, the HAP's equal-rate Poisson baseline, or its
// two-level ON-OFF reduction.
func newSource(kind, config string, lambda, mu, lambda2, mu2, lambda3, mu3 float64, l, mm int) (source, error) {
	switch kind {
	case "hap":
		var m *core.Model
		if config != "" {
			var err error
			if m, err = core.LoadModel(config); err != nil {
				return source{}, err
			}
		} else {
			m = core.NewSymmetric(lambda, mu, lambda2, mu2, lambda3, mu3, l, mm)
		}
		if err := m.Validate(); err != nil {
			return source{}, err
		}
		return source{hap: m, name: m.String()}, nil
	case "poisson":
		rate := core.NewSymmetric(lambda, mu, lambda2, mu2, lambda3, mu3, l, mm).MeanRate()
		return source{rate: rate, name: fmt.Sprintf("poisson(rate=%.4g)", rate)}, nil
	case "onoff":
		// Built literally (not via NewOnOff) so bad flag values surface as
		// a usage error instead of the constructor's invariant panic.
		tl := &core.TwoLevel{Lambda: lambda, Mu: mu, MsgLambda: lambda3, MsgMu: mu3}
		if err := tl.Validate(); err != nil {
			return source{}, err
		}
		return source{onoff: tl, name: fmt.Sprintf("onoff(ν=%.4g, γ=%.4g)", tl.Nu(), tl.MsgLambda)}, nil
	}
	return source{}, haperr.Badf("unknown source %q", kind)
}

// runSharded simulates an aggregate of independent sources partitioned
// across per-core engines (see sim.RunSharded) and prints the merged
// statistics. Results are bit-identical for any -shards value.
func runSharded(ctx context.Context, src source, shards, sources int, mcfg sim.MeasureConfig,
	horizon float64, seed int64, perStat string) error {
	if sources == 0 {
		per := shards
		if per <= 0 {
			per = runtime.GOMAXPROCS(0)
		}
		sources = 8 * per
	}
	scfg := sim.ShardedConfig{Horizon: horizon, Seed: seed, Shards: shards, Measure: mcfg, Ctx: ctx}
	if err := scfg.Validate(); err != nil {
		return err
	}

	var res *sim.ShardedResult
	switch {
	case src.hap != nil:
		fmt.Printf("source: %d × %s\n", sources, src.name)
		res = sim.RunShardedHAP(src.hap, sources, scfg)
	case src.onoff != nil:
		fmt.Printf("source: %d × %s\n", sources, src.name)
		res = sim.RunShardedOnOff(src.onoff, sources, scfg)
	default:
		return haperr.Badf("source poisson does not support sharded aggregates (use hap or onoff)")
	}

	fmt.Printf("\nsharded aggregate: %d sources on %d shards, wall %v\n",
		res.Sources, res.Shards, res.Elapsed)
	fmt.Printf("events %d, arrivals %d, departures %d (%.4g events/s aggregate)\n",
		res.Events, res.Arrivals, res.Departures, res.EventsPerSec())
	if res.Truncated {
		fmt.Println("warning: at least one shard stopped before the horizon")
	}
	fmt.Printf("mean delay         %.5g s (std %.4g, max %.4g, n=%d)\n",
		res.Merged.MeanDelay(), res.Merged.Delays.Std(), res.Merged.Delays.Max(), res.Merged.Delays.N())
	fmt.Printf("mean queue length  %.5g (max %g, per source)\n",
		res.Merged.MeanQueue(), res.Merged.Queue.Max())
	if perStat != "" {
		if err := writePerStation(perStat, res); err != nil {
			return err
		}
	}
	return res.Err
}

// stationJSON is one source's slice of a sharded aggregate in the
// -per-station report.
type stationJSON struct {
	Source       int     `json:"source"`
	MeanDelay    float64 `json:"mean_delay"`
	StdDelay     float64 `json:"std_delay"`
	MaxDelay     float64 `json:"max_delay"`
	Departures   int64   `json:"departures"`
	MeanQueue    float64 `json:"mean_queue"`
	MaxQueue     float64 `json:"max_queue"`
	ObservedRate float64 `json:"observed_rate"`
	Truncated    bool    `json:"truncated"`
}

// writePerStation emits the per-source breakdown the sharded engine
// already tracks (ShardedResult.PerSource) as a JSON array; '-' writes to
// stdout.
func writePerStation(path string, res *sim.ShardedResult) error {
	rows := make([]stationJSON, len(res.PerSource))
	for i, m := range res.PerSource {
		rows[i] = stationJSON{
			Source:       i,
			MeanDelay:    m.MeanDelay(),
			StdDelay:     m.Delays.Std(),
			MaxDelay:     m.Delays.Max(),
			Departures:   m.Delays.N(),
			MeanQueue:    m.MeanQueue(),
			MaxQueue:     m.Queue.Max(),
			ObservedRate: m.ObservedRate(),
			Truncated:    m.Truncated,
		}
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("per-station breakdown written to %s\n", path)
	return nil
}
