package cli

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hap/internal/haperr"
)

// childEnv makes the test binary run child instead of its tests: the
// signal tests need a process of their own to signal and to exit.
const childEnv = "HAP_CLI_TEST_CHILD"

func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		child(mode, os.Getenv("HAP_CLI_TEST_DIR"))
	}
	os.Exit(m.Run())
}

// child runs Main with both profiles in dir. Its body spins until the
// context is cancelled, then returns the context's error ("poll") or
// sleeps on without looking at it again ("ignore").
func child(mode, dir string) {
	Main(Options{
		CPUProfile: filepath.Join(dir, "cpu.prof"),
		MemProfile: filepath.Join(dir, "heap.prof"),
	}, func(ctx context.Context) error {
		fmt.Println("ready")
		for ctx.Err() == nil {
		}
		fmt.Println("cancelled")
		if mode == "ignore" {
			time.Sleep(time.Hour)
		}
		return ctx.Err()
	})
}

// startChild starts the test binary as a child in the given mode, with
// its stderr going to stderr, and waits for its body to start.
func startChild(t *testing.T, mode, dir string, stderr io.Writer) (*exec.Cmd, *bufio.Scanner) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"="+mode, "HAP_CLI_TEST_DIR="+dir)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(out)
	if !sc.Scan() || sc.Text() != "ready" {
		t.Fatalf("child did not start: %q %v", sc.Text(), sc.Err())
	}
	return cmd, sc
}

// wait reaps cmd, failing the test if it outlives the deadline.
func wait(t *testing.T, cmd *exec.Cmd) *os.ProcessState {
	t.Helper()
	done := make(chan struct{})
	go func() { cmd.Wait(); close(done) }()
	select {
	case <-done:
		return cmd.ProcessState
	case <-time.After(20 * time.Second):
		t.Fatal("child did not exit")
		return nil
	}
}

// A SIGTERM cancels the run; the process prints the run's error, exits
// with the cancelled code and leaves a whole CPU profile and a heap
// profile behind.
func TestSignalledRunExitsCancelledWithProfiles(t *testing.T) {
	dir := t.TempDir()
	var stderr strings.Builder
	cmd, _ := startChild(t, "poll", dir, &stderr)
	time.Sleep(100 * time.Millisecond) // let the CPU profile take samples
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := wait(t, cmd).ExitCode(); code != haperr.ExitCancelled || stderr.String() != "context canceled\n" {
		t.Fatalf("exit code %d and stderr %q, want %d and the context's error", code, stderr.String(), haperr.ExitCancelled)
	}
	for _, name := range []string{"cpu.prof", "heap.prof"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f) // a pprof profile is gzipped protobuf
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b, err := io.ReadAll(zr); err != nil || len(b) == 0 {
			t.Errorf("%s: %d bytes, %v", name, len(b), err)
		}
	}
}

// The first signal restores the default action, so a later one ends a
// run that never looks at its context again.
func TestSecondSignalEndsRunThatStopsPolling(t *testing.T) {
	cmd, sc := startChild(t, "ignore", t.TempDir(), os.Stderr)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() || sc.Text() != "cancelled" {
		t.Fatalf("first SIGINT did not cancel the run: %q %v", sc.Text(), sc.Err())
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Repeat: the handler is released just after the context is
		// cancelled, and a signal that lands in between is absorbed.
		for {
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
				cmd.Process.Signal(os.Interrupt)
			}
		}
	}()
	ws, ok := wait(t, cmd).Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Fatalf("child ended with %v, want death by SIGINT", ws)
	}
}

// A profile that cannot be written fails the run, and the body's own
// error still decides the exit code.
func TestProfileErrorsJoinTheRunsError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "p.prof")
	ran := false
	err := run(Options{CPUProfile: missing}, func(context.Context) error { ran = true; return nil })
	if err == nil || ran {
		t.Fatalf("unwritable CPU profile: err %v, body ran %v", err, ran)
	}
	err = run(Options{MemProfile: missing}, func(context.Context) error { return haperr.ErrUnstable })
	if !errors.Is(err, haperr.ErrUnstable) || haperr.ExitCode(err) != haperr.ExitUnstable {
		t.Fatalf("unwritable heap profile after a failed body: %v", err)
	}
	if err := run(Options{MemProfile: missing}, func(context.Context) error { return nil }); haperr.ExitCode(err) != haperr.ExitError {
		t.Fatalf("unwritable heap profile after a clean body: %v", err)
	}
}
