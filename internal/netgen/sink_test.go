package netgen

import (
	"context"
	"errors"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// rawSender writes crafted packets (chosen sequence numbers) straight to
// a sink, bypassing the scheduler — the loss-attribution tests need to
// fabricate sequence gaps deterministically.
type rawSender struct {
	t    *testing.T
	conn net.Conn
}

func newRawSender(t *testing.T, addr string) *rawSender {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSender{t: t, conn: conn}
}

func (rs *rawSender) send(seq uint64) {
	rs.t.Helper()
	if _, err := rs.conn.Write(Packet{Seq: seq}.Encode(nil)); err != nil {
		rs.t.Fatal(err)
	}
	// Space the datagrams out so the receive loop observes them in order.
	time.Sleep(2 * time.Millisecond)
}

// TestSinkCallbackPanicGuard is the regression test for the callback
// guard: a panicking OnArrival must not kill Collect or stop the packet
// measurements — it is recovered, counted, and disabled.
func TestSinkCallbackPanicGuard(t *testing.T) {
	sink, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	panicsBefore := obsCallbackPanics.Value()
	calls := 0
	sink.OnArrival = func(sec float64) {
		calls++
		panic("consumer bug")
	}
	done := make(chan SinkStats, 1)
	go func() {
		st, err := sink.Collect(context.Background(), 4, 2*time.Second)
		if err != nil {
			t.Errorf("collect after callback panic: %v", err)
		}
		done <- st
	}()
	rs := newRawSender(t, sink.Addr())
	for seq := uint64(1); seq <= 4; seq++ {
		rs.send(seq)
	}
	st := <-done
	if st.Received != 4 {
		t.Errorf("received %d of 4 — the panic stopped the loop", st.Received)
	}
	if calls != 1 {
		t.Errorf("panicking callback invoked %d times, want 1 (disabled after the panic)", calls)
	}
	if got := obsCallbackPanics.Value() - panicsBefore; got != 1 {
		t.Errorf("hap_netgen_callback_panics_total moved by %d, want 1", got)
	}
}

// TestSinkBlockedDropAttribution pins the drops-while-blocked counter: a
// sequence gap right after a slow OnArrival is attributed to the blocked
// receive loop; the same gap after a fast callback is not.
func TestSinkBlockedDropAttribution(t *testing.T) {
	run := func(slow time.Duration, cb func()) SinkStats {
		t.Helper()
		sink, err := NewSink("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		sink.SlowCallback = slow
		sink.OnArrival = func(sec float64) { cb() }
		done := make(chan SinkStats, 1)
		go func() {
			st, err := sink.Collect(context.Background(), 2, 2*time.Second)
			if err != nil {
				t.Errorf("collect: %v", err)
			}
			done <- st
		}()
		rs := newRawSender(t, sink.Addr())
		rs.send(1)
		rs.send(5) // fabricated gap: sequences 2..4 "lost"
		return <-done
	}

	blockedBefore := obsPacketsDroppedBlocked.Value()
	// A callback that overruns a 1µs threshold: the gap is attributed.
	st := run(time.Microsecond, func() { time.Sleep(3 * time.Millisecond) })
	if st.Lost != 3 {
		t.Fatalf("Lost = %d, want 3", st.Lost)
	}
	if st.LostWhileBlocked != 3 {
		t.Errorf("LostWhileBlocked = %d, want 3 (gap followed a slow callback)", st.LostWhileBlocked)
	}
	if got := obsPacketsDroppedBlocked.Value() - blockedBefore; got != 3 {
		t.Errorf("hap_netgen_packets_dropped_blocked_total moved by %d, want 3", got)
	}

	// A fast callback under the default 1ms threshold: same gap, no
	// blocked attribution.
	st = run(0, func() {})
	if st.Lost != 3 {
		t.Fatalf("control Lost = %d, want 3", st.Lost)
	}
	if st.LostWhileBlocked != 0 {
		t.Errorf("control LostWhileBlocked = %d, want 0 (callback was fast)", st.LostWhileBlocked)
	}
}

// TestSinkCloseDuringCollect is the regression test for the shutdown
// path: Close while Collect blocks in a read must surface as the
// ErrSinkClosed sentinel with finalized stats, not a raw net error.
func TestSinkCloseDuringCollect(t *testing.T) {
	sink, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		st  SinkStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := sink.Collect(context.Background(), 0, time.Minute)
		done <- result{st, err}
	}()
	rs := newRawSender(t, sink.Addr())
	for seq := uint64(1); seq <= 3; seq++ {
		rs.send(seq)
	}
	time.Sleep(20 * time.Millisecond) // let the reads drain
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if !errors.Is(r.err, ErrSinkClosed) {
			t.Fatalf("Collect after Close returned %v, want ErrSinkClosed", r.err)
		}
		if r.st.Received != 3 {
			t.Errorf("finalized stats lost packets: Received = %d, want 3", r.st.Received)
		}
		if r.st.Elapsed <= 0 {
			t.Error("stats not finalized: Elapsed = 0")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Collect did not return after Close")
	}
}

// TestSinkHoldsBurstWhileNotReading sends a burst to a sink that is not
// reading yet, as a sink busy between reads is, and then collects it:
// the socket's receive buffer must hold every packet. At the kernel's
// default buffer (212,992 bytes) a loopback datagram costs about 832
// bytes of it, so only ~256 of the burst would survive.
func TestSinkHoldsBurstWhileNotReading(t *testing.T) {
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skipf("cannot read the receive-buffer cap: %v", err)
	}
	if limit, err := strconv.Atoi(strings.TrimSpace(string(raw))); err != nil || limit < sinkReadBuffer {
		t.Skipf("net.core.rmem_max is %s bytes, below the sink's %d-byte request, so the kernel caps the buffer",
			strings.TrimSpace(string(raw)), sinkReadBuffer)
	}
	sink, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	conn, err := net.Dial("udp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const burst = 2000
	buf := make([]byte, 0, HeaderSize)
	for seq := uint64(1); seq <= burst; seq++ {
		if _, err := conn.Write(Packet{Seq: seq}.Encode(buf)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sink.Collect(context.Background(), burst, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != burst || st.Lost != 0 {
		t.Errorf("received %d of %d, lost %d: the receive buffer overflowed while the sink was not reading",
			st.Received, burst, st.Lost)
	}
}
