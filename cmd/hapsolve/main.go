// Command hapsolve computes the analytic HAP/M/1 solutions for a
// symmetric parameter set given by flags, or for any model, asymmetric
// ones included, read from a -config JSON file.
//
//	go run ./cmd/hapsolve -lambda 0.0055 -mu 0.001 -lambda2 0.01 -mu2 0.01 \
//	    -lambda3 0.1 -mu3 20 -l 5 -m 3 -solutions 1,2,exact,poisson
//
// Rates follow the paper's convention: each parameter is the reciprocal of
// the mean of the corresponding exponential distribution.
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"hap/internal/cli"
	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/solver"
	"hap/internal/trace"

	// Register the sim and netgen metric families so one scrape shows the
	// full hap_* namespace, present-but-zero when unused.
	_ "hap/internal/netgen"
	_ "hap/internal/sim"
)

func main() {
	var (
		lambda  = flag.Float64("lambda", 0.0055, "user arrival rate λ")
		mu      = flag.Float64("mu", 0.001, "user departure rate μ")
		lambda2 = flag.Float64("lambda2", 0.01, "application invocation rate λ'")
		mu2     = flag.Float64("mu2", 0.01, "application completion rate μ'")
		lambda3 = flag.Float64("lambda3", 0.1, "message generation rate λ''")
		mu3     = flag.Float64("mu3", 20, "message service rate μ''")
		l       = flag.Int("l", 5, "number of application types")
		mm      = flag.Int("m", 3, "message types per application")
		sols    = flag.String("solutions", "1,2,exact,poisson", "comma list: 0,1,2,exact,poisson")
		maxU    = flag.Int("maxusers", 0, "modulator truncation: users (0 = auto)")
		maxA    = flag.Int("maxapps", 0, "modulator truncation: applications (0 = auto)")
		maxZ    = flag.Int("maxqueue", 0, "queue truncation for Solution 0 (0 = auto)")
		config  = flag.String("config", "", "JSON model file (overrides the symmetric flags; supports asymmetric models)")
		timeout = flag.Duration("timeout", 0, "abort the solves after this wall-clock budget (0 = none; ctrl-c also cancels)")
		metrics = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090 or 127.0.0.1:0)")
	)
	flag.Parse()
	cli.Main(cli.Options{Timeout: *timeout, Metrics: *metrics}, func(ctx context.Context) error {
		var m *core.Model
		if *config != "" {
			var err error
			if m, err = core.LoadModel(*config); err != nil {
				return err
			}
		} else {
			m = core.NewSymmetric(*lambda, *mu, *lambda2, *mu2, *lambda3, *mu3, *l, *mm)
		}
		if err := m.Validate(); err != nil {
			return err
		}
		fmt.Printf("model: %s\n", m)
		if _, uniform := m.UniformServiceRate(); uniform {
			fmt.Printf("mean users %.4g, mean applications %.4g, utilisation %.4g\n\n",
				m.MeanUsers(), m.MeanApps(), m.Utilization())
		} else {
			fmt.Printf("mean users %.4g, mean applications %.4g (heterogeneous service rates)\n\n",
				m.MeanUsers(), m.MeanApps())
		}

		opts := &solver.Options{MaxUsers: *maxU, MaxApps: *maxA, MaxQueue: *maxZ, Ctx: ctx}
		var rows [][]string
		var firstErr error
		appendRow := func(r solver.Result, err error) {
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				rows = append(rows, []string{r.Method, "-", "-", "-", "-", err.Error()})
				return
			}
			method := r.Method
			if r.Degraded {
				method += " (degraded)"
			}
			rows = append(rows, []string{
				method,
				fmt.Sprintf("%.5g", r.MeanRate),
				fmt.Sprintf("%.5g", r.Sigma),
				fmt.Sprintf("%.5g", r.Delay),
				fmt.Sprintf("%.5g", r.QueueLen),
				r.Elapsed.String(),
			})
		}
		for _, s := range strings.Split(*sols, ",") {
			switch strings.TrimSpace(s) {
			case "0":
				appendRow(solver.Solution0(m, opts))
			case "1":
				appendRow(solver.Solution1(m, opts))
			case "2":
				appendRow(solver.Solution2(m, opts))
			case "exact", "mg":
				appendRow(solver.Solution0MG(m, opts))
			case "poisson":
				appendRow(solver.Poisson(m))
			case "":
			default:
				return haperr.Badf("unknown solution %q", s)
			}
		}
		fmt.Print(trace.Table([]string{"method", "λ̄", "σ", "delay", "queue", "elapsed"}, rows))
		return firstErr
	})
}
