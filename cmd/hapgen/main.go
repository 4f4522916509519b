// Command hapgen generates HAP-modulated UDP traffic or measures it.
//
// Sink (start first; prints the bound address):
//
//	go run ./cmd/hapgen -mode sink -listen 127.0.0.1:9999
//
// Sender (replays a HAP schedule, optionally time-compressed):
//
//	go run ./cmd/hapgen -mode send -to 127.0.0.1:9999 -model-seconds 600 -compress 100
//
// One-shot loopback demo (sender + sink in one process):
//
//	go run ./cmd/hapgen -mode loopback -model-seconds 300 -compress 100
//
// Trace export (no network; writes model-time arrival timestamps as CSV
// that hapfit -in reads back):
//
//	go run ./cmd/hapgen -mode trace -model-seconds 600 -out trace.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"hap/internal/cli"
	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/netgen"
	"hap/internal/trace"

	// Register the sim and solver metric families so one scrape shows the
	// full hap_* namespace, present-but-zero when unused.
	_ "hap/internal/sim"
	_ "hap/internal/solver"
)

func main() {
	var (
		mode     = flag.String("mode", "loopback", "send | sink | loopback | trace")
		out      = flag.String("out", "trace.csv", "output CSV path (trace mode)")
		to       = flag.String("to", "127.0.0.1:9999", "sink address (send mode)")
		listen   = flag.String("listen", "127.0.0.1:9999", "listen address (sink mode)")
		source   = flag.String("source", "hap", "hap | poisson | onoff")
		seconds  = flag.Float64("model-seconds", 300, "model time to generate")
		compress = flag.Float64("compress", 100, "time compression (model s per wall s)")
		pad      = flag.Int("pad", 64, "payload padding bytes")
		seed     = flag.Int64("seed", 1, "schedule seed")
		muMsg    = flag.Float64("mu3", 20, "message service rate (model metadata)")
		timeout  = flag.Duration("timeout", 0, "abort sending/collecting after this wall-clock budget (0 = none; ctrl-c also cancels)")
		metrics  = flag.String("metrics", "", "serve live metrics on this address (e.g. :9090 or 127.0.0.1:0)")
	)
	flag.Parse()
	cli.Main(cli.Options{Timeout: *timeout, Metrics: *metrics}, func(ctx context.Context) error {
		switch *mode {
		case "sink":
			return runSink(ctx, *listen)
		case "send", "trace", "loopback":
		default:
			return haperr.Badf("unknown mode %q", *mode)
		}
		s, err := makeSchedule(*source, *seconds, *seed, *muMsg)
		if err != nil {
			return err
		}
		cfg := netgen.SenderConfig{Compression: *compress, PayloadPad: *pad}
		switch *mode {
		case "send":
			return sendTo(ctx, *to, s, cfg)
		case "trace":
			return writeTrace(*out, s)
		default:
			return loopback(ctx, s, cfg)
		}
	})
}

func makeSchedule(source string, seconds float64, seed int64, muMsg float64) (*netgen.Schedule, error) {
	switch source {
	case "hap":
		return netgen.GenerateHAP(core.PaperParams(muMsg), seconds, seed)
	case "poisson":
		return netgen.GeneratePoisson(core.PaperParams(muMsg).MeanRate(), seconds, seed)
	case "onoff":
		// Built literally (not via NewOnOff) so a bad -mu3 surfaces as an
		// error instead of the constructor's invariant panic.
		tl := &core.TwoLevel{Lambda: 0.05, Mu: 0.01, MsgLambda: 2, MsgMu: muMsg}
		if err := tl.Validate(); err != nil {
			return nil, err
		}
		return netgen.GenerateOnOff(tl, seconds, seed)
	}
	return nil, haperr.Badf("unknown source %q", source)
}

func writeTrace(path string, s *netgen.Schedule) error {
	times := make([]float64, len(s.Arrivals))
	for i, a := range s.Arrivals {
		times[i] = a.T
	}
	if err := trace.WriteCSV(path, trace.Series{Name: "arrival_s", Values: times}); err != nil {
		return err
	}
	fmt.Printf("wrote %d arrivals over %g model s (rate %.4g/s) to %s\n",
		len(times), s.Horizon, s.MeanRate(), path)
	return nil
}

func sendTo(ctx context.Context, addr string, s *netgen.Schedule, cfg netgen.SenderConfig) error {
	fmt.Printf("sending %d packets to %s at %gx compression...\n", len(s.Arrivals), addr, cfg.Compression)
	stats, err := netgen.Send(ctx, addr, s, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("sent %d packets (%d bytes) in %v\n", stats.Sent, stats.Bytes, stats.Elapsed.Round(time.Millisecond))
	return nil
}

// loopback replays s to a sink in this process and reports both ends.
func loopback(ctx context.Context, s *netgen.Schedule, cfg netgen.SenderConfig) error {
	sink, err := netgen.NewSink("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sink.Close()
	fmt.Printf("schedule: %d packets over %g model s (rate %.4g/s); replay at %gx\n",
		len(s.Arrivals), s.Horizon, s.MeanRate(), cfg.Compression)
	type collected struct {
		st  netgen.SinkStats
		err error
	}
	done := make(chan collected, 1)
	go func() {
		st, err := sink.Collect(ctx, len(s.Arrivals), netgen.AdaptiveIdle(s, cfg.Compression))
		done <- collected{st, err}
	}()
	stats, err := netgen.Send(ctx, sink.Addr(), s, cfg)
	if err != nil {
		return err // the deferred Close ends the collector
	}
	c := <-done
	if c.err != nil {
		return c.err
	}
	fmt.Printf("sent %d packets (%d bytes) in %v, worst pacing lateness %v\n",
		stats.Sent, stats.Bytes, stats.Elapsed.Round(time.Millisecond),
		time.Duration(stats.MaxLateNs))
	report(c.st)
	return nil
}

func runSink(ctx context.Context, listen string) error {
	sink, err := netgen.NewSink(listen)
	if err != nil {
		return err
	}
	defer sink.Close()
	fmt.Printf("listening on %s (ctrl-c to stop; reports after 5 s idle)\n", sink.Addr())
	st, err := sink.Collect(ctx, 0, 5*time.Second)
	if err != nil {
		return err
	}
	report(st)
	return nil
}

func report(st netgen.SinkStats) {
	fmt.Printf("received %d packets (%d bytes) in %v\n", st.Received, st.BytesTotal, st.Elapsed.Round(time.Millisecond))
	fmt.Printf("  lost %d, reordered %d (seq %d..%d)\n", st.Lost, st.Reordered, st.FirstSeq, st.LastSeq)
	fmt.Printf("  interarrival mean %.6gs, SCV %.4g\n", st.MeanIA, st.SCV)
	if st.IDCWindow > 0 {
		fmt.Printf("  IDC(%.3gs window) %.4g  (Poisson ≈ 1; HAP ≫ 1)\n", st.IDCWindow, st.IDC)
	}
}
