// Package cli is the process plumbing the cmd/ binaries share: the
// context that SIGINT, SIGTERM and -timeout cancel, the -metrics
// endpoint, the -cpuprofile and -memprofile profiles, and the mapping
// from a run's error to the exit code (haperr.ExitCode).
//
// Main is the only place a binary exits. Its run returns first, so every
// deferred flush has run by then: a run cut short by a signal, -timeout
// or an error still leaves whole profiles and a closed metrics server.
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hap/internal/haperr"
	"hap/internal/obs"
)

// Options are the plumbing flags a binary declares. A zero field is off.
type Options struct {
	// Timeout cancels the run's context after this wall-clock budget.
	Timeout time.Duration
	// Metrics serves the obs registry on this address for the run.
	Metrics string
	// CPUProfile receives a CPU profile of the run.
	CPUProfile string
	// MemProfile receives a heap profile taken when the run returns.
	MemProfile string
}

// Main runs body under the plumbing o describes and exits the process.
// A nil error exits 0; any other is printed on stderr and exits with the
// code haperr.ExitCode gives it. Main never returns.
func Main(o Options, body func(ctx context.Context) error) {
	err := run(o, body)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(haperr.ExitCode(err))
}

// SignalContext returns a context that the first SIGINT or SIGTERM
// cancels. That signal also restores the default action, so a second one
// ends the process even while nothing polls the context. stop releases
// the handler.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// run is Main without the exit: it returns body's error joined with any
// failure to write a profile.
func run(o Options, body func(ctx context.Context) error) (err error) {
	ctx, stop := SignalContext()
	defer stop()
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	if o.Metrics != "" {
		srv, err := obs.Serve(o.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		// stderr, so stdout stays the run's own output (hapfit -json).
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", srv.Addr())
	}
	if o.CPUProfile != "" {
		f, err := os.Create(o.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	err = body(ctx)
	if o.MemProfile != "" {
		err = errors.Join(err, writeHeapProfile(o.MemProfile))
	}
	return err
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush recently freed objects for an accurate heap picture
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
