// Command hapnet simulates HAP (or Poisson / ON-OFF) traffic over a
// multi-hop queueing network and prints per-node and end-to-end
// statistics: where the queueing happens, hop by hop.
//
//	go run ./cmd/hapnet -topo fanin -k 4 -mu 50 -horizon 2e4
//	go run ./cmd/hapnet -topo tandem -nodes 3 -mu 12 -source poisson -rate 8
//	go run ./cmd/hapnet -topo grid -gw 3 -gh 3 -mu 30 -reps 8 -parallel 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"hap/internal/cli"
	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/net"
	"hap/internal/sim"

	// Register the solver and netgen metric families so one scrape of any
	// binary shows the full hap_* namespace, present-but-zero when unused.
	_ "hap/internal/netgen"
	_ "hap/internal/solver"
)

func main() {
	var (
		topoKind = flag.String("topo", "fanin", "topology: tandem | fanin | grid")
		nodes    = flag.Int("nodes", 3, "tandem: number of stages")
		k        = flag.Int("k", 4, "fanin: number of edge nodes (one source each)")
		gw       = flag.Int("gw", 3, "grid: width")
		gh       = flag.Int("gh", 3, "grid: height")
		mu       = flag.Float64("mu", 50, "node service rate (fanin: the bottleneck)")
		edgeMu   = flag.Float64("edge-mu", 1e5, "fanin: edge-node service rate")
		buffer   = flag.Int("buffer", 0, "per-node buffer (queue + server, 0 = unbounded)")
		source   = flag.String("source", "hap", "traffic source per ingress: hap | poisson | onoff")
		lambda   = flag.Float64("lambda", 0.0055, "HAP user arrival rate λ")
		muUser   = flag.Float64("mu-user", 0.001, "HAP user departure rate μ")
		lambda2  = flag.Float64("lambda2", 0.01, "HAP application invocation rate λ'")
		mu2      = flag.Float64("mu2", 0.01, "HAP application completion rate μ'")
		lambda3  = flag.Float64("lambda3", 0.1, "HAP message generation rate λ''")
		l        = flag.Int("l", 5, "HAP application types")
		mm       = flag.Int("m", 3, "HAP message types per application")
		rate     = flag.Float64("rate", 8.25, "poisson/onoff: mean packet rate per ingress")
		horizon  = flag.Float64("horizon", 1e4, "simulated seconds")
		warmup   = flag.Float64("warmup", 0, "warmup seconds to discard (default horizon/100)")
		seed     = flag.Int64("seed", 1, "random seed")
		reps     = flag.Int("reps", 1, "independent replications to run and merge")
		workers  = flag.Int("parallel", 1, "workers for replications: 0 = all cores, 1 = serial")
		maxHops  = flag.Int("max-hops", 0, "drop packets after this many node visits (0 = default limit)")
		paths    = flag.Int("paths", 0, "print the visited-node paths of up to this many delivered packets")
		jsonOut  = flag.String("json", "", "write the full result as JSON to this file ('-' = stdout)")
		timeout  = flag.Duration("timeout", 0, "abort after this wall-clock budget (0 = none; ctrl-c also cancels)")
		metrics  = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090 or 127.0.0.1:0)")
	)
	flag.Parse()
	cli.Main(cli.Options{Timeout: *timeout, Metrics: *metrics}, func(ctx context.Context) error {
		if *warmup == 0 {
			*warmup = *horizon / 100
		}
		// Topology and the ingress nodes it implies: tandem and grid take one
		// source at the entrance, fan-in takes one per edge node.
		var (
			topo    *net.Topology
			entries []int
			dst     int
		)
		switch *topoKind {
		case "tandem":
			mus := make([]float64, *nodes)
			for i := range mus {
				mus[i] = *mu
			}
			topo = net.Tandem("tandem", mus, *buffer)
			entries, dst = []int{0}, *nodes-1
		case "fanin":
			topo = net.FanIn("fanin", *k, *edgeMu, *mu, *buffer, *buffer)
			for i := 0; i < *k; i++ {
				entries = append(entries, i)
			}
			dst = *k
		case "grid":
			topo = net.Grid("grid", *gw, *gh, *mu, *buffer)
			entries, dst = []int{0}, *gw**gh-1
		default:
			return haperr.Badf("unknown topology %q", *topoKind)
		}
		if err := topo.Validate(); err != nil {
			return err
		}

		var ings []net.Ingress
		switch *source {
		case "hap":
			// Every node serves at its own rate, whatever the model's message
			// service rate says — pass the node rate so the model prints with
			// the effective service speed.
			m := core.NewSymmetric(*lambda, *muUser, *lambda2, *mu2, *lambda3, *mu, *l, *mm)
			if err := m.Validate(); err != nil {
				return err
			}
			fmt.Printf("source: %s per ingress (λ̄ = %.4g)\n", m, m.MeanRate())
			for _, e := range entries {
				ings = append(ings, net.HAPIngress(m, e, dst))
			}
		case "poisson":
			fmt.Printf("source: poisson(rate=%.4g) per ingress\n", *rate)
			for _, e := range entries {
				ings = append(ings, net.PoissonIngress(*rate, e, dst))
			}
		case "onoff":
			tl := &core.TwoLevel{Lambda: *lambda, Mu: *muUser, MsgLambda: *rate, MsgMu: *mu}
			if err := tl.Validate(); err != nil {
				return err
			}
			fmt.Printf("source: onoff(ν=%.4g, γ=%.4g) per ingress\n", tl.Nu(), tl.MsgLambda)
			for _, e := range entries {
				ings = append(ings, net.OnOffIngress(tl, e, dst))
			}
		default:
			return haperr.Badf("unknown source %q", *source)
		}

		cfg := net.Config{
			Horizon:   *horizon,
			Seed:      *seed,
			MaxHops:   *maxHops,
			KeepPaths: *paths,
			Measure:   sim.MeasureConfig{Warmup: *warmup},
			Ctx:       ctx,
		}
		var res *net.Result
		if *reps > 1 {
			res = net.RunReplicated(topo, ings, cfg, *reps, *workers)
		} else {
			res = net.Run(topo, ings, cfg)
		}
		if errors.Is(res.Err, haperr.ErrBadParameter) {
			return res.Err // rejected before it ran: there is no report
		}

		fmt.Printf("\ntopology %s: %d nodes, %d links, horizon %g s", topo.Name, len(topo.Nodes), len(topo.Links), *horizon)
		if *reps > 1 {
			fmt.Printf(" × %d reps", *reps)
		}
		fmt.Printf(", wall %v\n", res.Elapsed)
		fmt.Printf("events %d, offered %d, delivered %d, dropped %d (full) + %d (hop limit), in flight %d\n",
			res.Events, res.E2E.Offered, res.E2E.Delivered, res.E2E.DroppedFull, res.E2E.DroppedHops, res.InFlight)
		if res.Truncated {
			fmt.Println("warning: at least one run stopped before its horizon")
		}

		fmt.Printf("\n%-12s %10s %10s %10s %8s %12s %12s\n",
			"node", "in", "forwarded", "delivered", "dropped", "mean sojourn", "mean queue")
		for j, c := range res.Node {
			fmt.Printf("%-12s %10d %10d %10d %8d %12.5g %12.5g\n",
				c.Name, c.In, c.Forwarded, c.Delivered, c.DroppedFull,
				res.PerNode[j].MeanDelay(), res.PerNode[j].MeanQueue())
		}

		fmt.Printf("\nend-to-end sojourn  %.5g s (std %.4g, max %.4g, n=%d)\n",
			res.E2E.Sojourn.Mean(), res.E2E.Sojourn.Std(), res.E2E.Sojourn.Max(), res.E2E.Sojourn.N())
		if *reps > 1 && res.HalfWidth > 0 {
			fmt.Printf("rep-level 95%% CI    ± %.3g\n", res.HalfWidth)
		}
		for h, w := range res.E2E.PerHop {
			if w.N() > 0 {
				fmt.Printf("  hop %-2d sojourn    %.5g s (n=%d)\n", h+1, w.Mean(), w.N())
			}
		}
		for h, n := range res.E2E.Hops {
			if n > 0 {
				fmt.Printf("  %d delivered after %d node visits\n", n, h)
			}
		}
		for _, p := range res.Paths {
			names := make([]string, len(p))
			for i, n := range p {
				names[i] = topo.NodeName(int(n))
			}
			fmt.Printf("  path: %v\n", names)
		}

		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, res, topo); err != nil {
				return err
			}
		}
		return res.Err
	})
}

// nodeJSON and resultJSON flatten the result for scripted consumers
// (scripts/smoke asserts on these fields).
type nodeJSON struct {
	Name        string  `json:"name"`
	In          int64   `json:"in"`
	Forwarded   int64   `json:"forwarded"`
	Delivered   int64   `json:"delivered"`
	DroppedFull int64   `json:"dropped_full"`
	MeanSojourn float64 `json:"mean_sojourn"`
	MeanQueue   float64 `json:"mean_queue"`
}

type resultJSON struct {
	Topology    string     `json:"topology"`
	Nodes       []nodeJSON `json:"nodes"`
	MeanSojourn float64    `json:"mean_sojourn"`
	SojournN    int64      `json:"sojourn_n"`
	Hops        []int64    `json:"hops"`
	Offered     int64      `json:"offered"`
	Delivered   int64      `json:"delivered"`
	DroppedFull int64      `json:"dropped_full"`
	DroppedHops int64      `json:"dropped_hops"`
	InFlight    int64      `json:"in_flight"`
	Events      int64      `json:"events"`
	Truncated   bool       `json:"truncated"`
}

func writeJSON(path string, res *net.Result, topo *net.Topology) error {
	doc := resultJSON{
		Topology:    res.Topology,
		MeanSojourn: res.E2E.Sojourn.Mean(),
		SojournN:    res.E2E.Sojourn.N(),
		Hops:        res.E2E.Hops,
		Offered:     res.E2E.Offered,
		Delivered:   res.E2E.Delivered,
		DroppedFull: res.E2E.DroppedFull,
		DroppedHops: res.E2E.DroppedHops,
		InFlight:    res.InFlight,
		Events:      res.Events,
		Truncated:   res.Truncated,
	}
	for j, c := range res.Node {
		doc.Nodes = append(doc.Nodes, nodeJSON{
			Name: c.Name, In: c.In, Forwarded: c.Forwarded, Delivered: c.Delivered,
			DroppedFull: c.DroppedFull,
			MeanSojourn: res.PerNode[j].MeanDelay(), MeanQueue: res.PerNode[j].MeanQueue(),
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
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
	fmt.Printf("result written to %s\n", path)
	return nil
}
