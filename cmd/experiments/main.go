// Command experiments regenerates the paper's tables and figures.
//
//	go run ./cmd/experiments                 # everything at a moderate scale
//	go run ./cmd/experiments -scale 1        # paper scale (minutes of CPU)
//	go run ./cmd/experiments -experiment E4  # one artefact
//	go run ./cmd/experiments -list
//
// CSV series land under -results (default ./results); ASCII charts and
// paper-vs-measured tables print to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"hap/internal/cli"
	"hap/internal/experiments"
	"hap/internal/haperr"

	// Register the netgen metric families too, so one scrape shows the full
	// hap_* namespace (experiments already pull in sim and solver).
	_ "hap/internal/netgen"
)

func main() {
	var (
		scale   = flag.Float64("scale", 0.25, "experiment scale: 1 = paper scale, smaller = faster")
		expID   = flag.String("experiment", "", "run a single experiment (E1..E16)")
		results = flag.String("results", "results", "directory for CSV series ('' disables)")
		seed    = flag.Int64("seed", 1993, "master random seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		timeout = flag.Duration("timeout", 0, "stop dispatching experiments after this wall-clock budget (0 = none; ctrl-c also cancels)")
		metrics = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090 or 127.0.0.1:0)")
	)
	flag.Parse()
	// Ctrl-c (and an optional -timeout) stop the batch between experiments,
	// not inside one.
	cli.Main(cli.Options{Timeout: *timeout, Metrics: *metrics, CPUProfile: *cpuProf, MemProfile: *memProf}, func(runCtx context.Context) error {
		if *list {
			for _, e := range experiments.All() {
				fmt.Printf("%-4s %s\n", e.ID, e.Title)
			}
			return nil
		}
		if !(*scale > 0) || math.IsInf(*scale, 1) {
			return haperr.Badf("-scale must be positive and finite (got %v)", *scale)
		}
		ctx := &experiments.Context{
			Scale:      *scale,
			Out:        os.Stdout,
			ResultsDir: *results,
			Seed:       *seed,
			Ctx:        runCtx,
		}
		if *expID != "" {
			e, ok := experiments.Get(*expID)
			if !ok {
				return haperr.Badf("unknown experiment %q; use -list", *expID)
			}
			res, err := e.Run(ctx)
			if err != nil {
				return fmt.Errorf("%s failed: %w", e.ID, err)
			}
			res.Render(os.Stdout)
			return nil
		}
		if _, err := experiments.RunAll(ctx); err != nil {
			return fmt.Errorf("some experiments failed: %w", err)
		}
		return nil
	})
}
