// Command hapfit estimates arrival-process models from a packet trace and
// reports which model class the trace supports.
//
// Fit a CSV trace (first column = arrival timestamps in seconds; hapgen
// -mode trace writes this format):
//
//	go run ./cmd/hapfit -in trace.csv
//
// Fit live traffic (pairs with a hapgen sender):
//
//	go run ./cmd/hapfit -listen 127.0.0.1:9999 -expect 10000
//
// Continuously re-fit live traffic every 5000 arrivals over a 30 s
// sliding window (warm-started, allocation-free at steady state):
//
//	go run ./cmd/hapfit -listen 127.0.0.1:9999 -refit 5000 -window 30
//
// Restrict the candidate set, declare the HAP tree shape, emit JSON:
//
//	go run ./cmd/hapfit -in trace.csv -model hap -l 5 -m 3 -json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hap/internal/cli"
	"hap/internal/fit"
	"hap/internal/haperr"
	"hap/internal/netgen"
	"hap/internal/trace"
)

func main() {
	var (
		in       = flag.String("in", "", "CSV trace to fit (first column = arrival seconds)")
		listen   = flag.String("listen", "", "fit live traffic arriving on this UDP address instead of a file")
		expect   = flag.Int("expect", 0, "stop collecting after this many packets (listen mode; 0 = idle timeout only)")
		idle     = flag.Duration("idle", 5*time.Second, "stop collecting after this long with no packets (listen mode)")
		model    = flag.String("model", "auto", "auto | poisson | onoff | hap | mmpp2 (comma-separate for a subset)")
		appTypes = flag.Int("l", 1, "application types per user in the fitted HAP tree")
		fanout   = flag.Int("m", 1, "message-generator fanout per application in the fitted HAP tree")
		muMsg    = flag.Float64("mu3", 0, "declared message service rate for fitted queueing models (0 = 2x the trace rate)")
		emIter   = flag.Int("em-max-iter", 0, "MMPP2 EM iteration budget (0 = default)")
		emTol    = flag.Float64("em-tol", 0, "MMPP2 EM convergence tolerance on the per-sample log-likelihood delta (0 = default)")
		emMax    = flag.Int("em-max-samples", 0, "cap on interarrivals the EM pass consumes (0 = default, negative = unlimited)")
		emStarts = flag.Int("em-starts", 0, "EM multi-start count (seed-perturbed restarts; <= 1 = single deterministic start)")
		emSeed   = flag.Int64("em-seed", 1, "seed for the perturbed EM restarts")
		workers  = flag.Int("workers", 0, "goroutines for model candidates and EM restarts (0 = GOMAXPROCS, 1 = serial)")
		refitN   = flag.Int("refit", 0, "listen mode: re-fit the MMPP2 over the sliding window every N arrivals (0 = off)")
		window   = flag.Float64("window", 0, "sliding re-fit window in seconds (required with -refit)")
		asJSON   = flag.Bool("json", false, "emit the full report as JSON")
		timeout  = flag.Duration("timeout", 0, "abort collecting/fitting after this wall-clock budget (0 = none; ctrl-c also cancels)")
		metrics  = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090 or 127.0.0.1:0)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	cli.Main(cli.Options{Timeout: *timeout, Metrics: *metrics, CPUProfile: *cpuProf, MemProfile: *memProf}, func(ctx context.Context) error {
		if (*in == "") == (*listen == "") {
			return haperr.Badf("hapfit: exactly one of -in or -listen is required")
		}
		if *refitN > 0 && (*listen == "" || !(*window > 0)) {
			return haperr.Badf("hapfit: -refit needs -listen and a positive -window")
		}
		emOpt := fit.EMOptions{
			MaxIter:    *emIter,
			Tol:        *emTol,
			MaxSamples: *emMax,
			Starts:     *emStarts,
			Seed:       *emSeed,
			Workers:    *workers,
		}

		var (
			times []float64
			err   error
		)
		if *in != "" {
			times, err = trace.ReadTimestamps(*in)
		} else {
			times, err = collect(ctx, *listen, *expect, *idle, *refitN, *window, *asJSON, emOpt)
		}
		if err != nil {
			return err
		}

		opt := fit.Options{
			ServiceRate: *muMsg,
			AppTypes:    *appTypes,
			Fanout:      *fanout,
			Workers:     *workers,
			EM:          emOpt,
		}
		if *model != "auto" && *model != "" {
			opt.Models = strings.Split(*model, ",")
		}
		rep, err := fit.Fit(ctx, times, opt)
		if err != nil {
			return err
		}

		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return err
			}
		} else {
			printReport(rep)
		}
		if rep.Best != "" {
			return nil
		}
		// Every candidate failed; surface the most informative failure as
		// the exit code (not-converged beats a generic error).
		for _, c := range rep.Candidates {
			if c.Diag.Iterations > 0 && !c.Diag.Converged {
				return fmt.Errorf("hapfit: every candidate failed: %w", haperr.ErrNotConverged)
			}
		}
		return errors.New("hapfit: every candidate failed")
	})
}

// collect gathers arrival timestamps live, streaming each packet into the
// slice the fitters consume via the sink's OnArrival hook. With refitN > 0
// it also maintains a sliding-window TraceStats (window seconds of
// retained timestamps) and re-fits the MMPP2 every refitN arrivals via a
// warm-started Refitter, reporting each fit on stderr — the continuous
// estimation loop, allocation-free at steady state.
func collect(ctx context.Context, listen string, expect int, idle time.Duration, refitN int, window float64, asJSON bool, emOpt fit.EMOptions) ([]float64, error) {
	sink, err := netgen.NewSink(listen)
	if err != nil {
		return nil, err
	}
	defer sink.Close()
	var times []float64
	var (
		ts *fit.TraceStats
		rf *fit.Refitter
	)
	if refitN > 0 {
		ts, err = fit.NewTraceStats(fit.TraceConfig{SlideWindow: window})
		if err != nil {
			return nil, err
		}
		rf = &fit.Refitter{Opt: emOpt}
	}
	sink.OnArrival = func(sec float64) {
		times = append(times, sec)
		if ts == nil {
			return
		}
		if err := ts.Add(sec); err != nil {
			return // out-of-order live packet; the final fit still sees it
		}
		ts.Slide(sec)
		if len(times)%refitN != 0 || ts.WindowN() < 8 {
			return
		}
		if _, err := rf.Refit(ctx, ts); err != nil && !errors.Is(err, haperr.ErrNotConverged) {
			fmt.Fprintf(os.Stderr, "refit @%d: %v\n", len(times), err)
			return
		}
		rep := rf.Report(ts)
		if asJSON {
			b, _ := json.Marshal(rep)
			fmt.Fprintf(os.Stderr, "%s\n", b)
			return
		}
		// Window moments first: they describe the data this fit saw. The
		// cumulative stream moments follow, labelled as such.
		fmt.Fprintf(os.Stderr, "refit @%d (%d in window, rate %.4g/s c² %.4g; stream rate %.4g/s c² %.4g): MMPP2 rates %.4g/%.4g /s, Q01 %.4g, Q10 %.4g (%d iter)\n",
			rep.Arrivals, rep.WindowN, rep.WindowRate, rep.WindowC2, rep.CumRate, rep.CumC2,
			rep.R0, rep.R1, rep.Q01, rep.Q10, rep.Iterations)
	}
	fmt.Fprintf(os.Stderr, "listening on %s (ctrl-c to stop and fit what arrived)\n", sink.Addr())
	st, err := sink.Collect(ctx, expect, idle)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "collected %d packets in %v (lost %d, reordered %d)\n",
		st.Received, st.Elapsed.Round(time.Millisecond), st.Lost, st.Reordered)
	return times, nil
}

func printReport(rep *fit.Report) {
	tr := rep.Trace
	fmt.Printf("trace: %d arrivals over %.4g s — rate %.4g/s, mean interarrival %.4g s, c² %.4g\n",
		tr.N, tr.Horizon, tr.Rate, tr.MeanIA, tr.C2)
	if tr.Bursts.Bursts > 0 {
		fmt.Printf("bursts: %d (mean size %.3g msgs, length %.3g s, gap %.3g s)\n",
			tr.Bursts.Bursts, tr.Bursts.MeanSize, tr.Bursts.MeanBurst, tr.Bursts.MeanGap)
	}
	if n := len(tr.IDC); n > 0 {
		ws := make([]float64, 0, n)
		for _, p := range tr.IDC {
			ws = append(ws, p.Window)
		}
		sort.Float64s(ws)
		last := tr.IDC[len(tr.IDC)-1]
		fmt.Printf("dispersion: IDC(%.3g s) = %.4g over %d windows in [%.3g s, %.3g s]\n",
			last.Window, last.IDC, n, ws[0], ws[n-1])
	}
	fmt.Println()
	fmt.Printf("%-8s %2s %10s %10s %14s  %s\n", "model", "k", "rate", "c²", "BIC", "status")
	for _, c := range rep.Candidates {
		if c.Error != "" {
			fmt.Printf("%-8s %2s %10s %10s %14s  failed: %s\n", c.Name, "-", "-", "-", "-", c.Error)
			continue
		}
		status := "converged"
		if !c.Diag.Converged {
			status = "NOT converged"
		}
		if c.Diag.Iterations > 0 {
			status += fmt.Sprintf(" (%d iter)", c.Diag.Iterations)
		}
		marker := " "
		if c.Name == rep.Best {
			marker = "*"
		}
		fmt.Printf("%-8s %2d %10.4g %10.4g %14.1f  %s%s\n", c.Name, c.K, c.Rate, c.C2, c.BIC, marker, status)
	}
	fmt.Println()
	if rep.Best == "" {
		fmt.Println("best: none — every candidate failed")
		return
	}
	fmt.Printf("best: %s\n", rep.Best)
	printBest(rep.BestCandidate())
}

func printBest(c *fit.Candidate) {
	switch {
	case c == nil:
	case c.Poisson != nil:
		fmt.Printf("  Poisson arrivals, λ = %.6g/s\n", c.Poisson.Rate)
	case c.OnOff != nil:
		m := c.OnOff.Model
		fmt.Printf("  ON-OFF: ν = %.4g active calls (λ = %.4g/s, μ = %.4g/s), γ = %.4g msgs/s per call, μ” = %.4g/s declared\n",
			c.OnOff.Nu, m.Lambda, m.Mu, m.MsgLambda, m.MsgMu)
	case c.HAP != nil:
		m := c.HAP.Model
		if ok, lambdaApp, muApp, lambdaMsg, fo := m.Symmetric(); ok {
			fmt.Printf("  HAP: users λ = %.4g/s, μ = %.4g/s; %d app types λ' = %.4g/s, μ' = %.4g/s; fanout %d, λ” = %.4g/s\n",
				m.Lambda, m.Mu, m.NumAppTypes(), lambdaApp, muApp, fo, lambdaMsg)
		} else {
			fmt.Printf("  HAP: %v\n", m)
		}
	case c.MMPP2 != nil:
		f := c.MMPP2
		fmt.Printf("  MMPP2: rates %.4g/s ↔ %.4g/s, switching Q01 = %.4g/s, Q10 = %.4g/s (%d interarrivals, loglik %.6g)\n",
			f.Model.R0, f.Model.R1, f.Model.Q01, f.Model.Q10, f.Samples, f.LogLik)
	}
}
