package netgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"hap/internal/stats"
)

// ErrSinkClosed reports that the sink's socket was closed while Collect
// was receiving. The returned SinkStats are finalized and valid — a
// controlled shutdown (Close from another goroutine to drain a stream)
// checks errors.Is(err, ErrSinkClosed) and keeps the stats, instead of
// having to pattern-match raw net errors.
var ErrSinkClosed = errors.New("netgen: sink closed during collect")

// SinkStats summarises what a sink measured.
type SinkStats struct {
	Received  int
	Lost      int // sequence gaps
	Reordered int // sequence regressions
	// LostWhileBlocked is the subset of Lost whose gap immediately
	// followed an OnArrival callback that overran the SlowCallback
	// threshold — losses plausibly caused by the receive loop being
	// blocked in the callback rather than by the network.
	LostWhileBlocked int
	MeanIA           float64 // seconds between datagrams at the receiver
	SCV              float64 // interarrival squared coefficient of variation
	IDC              float64 // index of dispersion at the window below
	IDCWindow        float64
	FirstSeq         uint64
	LastSeq          uint64
	Elapsed          time.Duration
	BytesTotal       int64
}

// Sink receives hapgen datagrams on a UDP socket and measures the arrival
// process.
type Sink struct {
	conn *net.UDPConn

	// OnArrival, when non-nil, is invoked from Collect for every decoded
	// packet with its arrival time in seconds since Collect started. It
	// lets a caller stream arrivals into an accumulator (hapfit feeds a
	// fit.TraceStats this way) without buffering the whole trace twice.
	// It runs on Collect's goroutine; keep it fast — while it runs the
	// socket is not being read and the kernel buffer can overflow. A
	// panicking callback is recovered, counted on
	// hap_netgen_callback_panics_total and disabled for the rest of the
	// Collect; the packets themselves keep being measured.
	OnArrival func(sec float64)

	// SlowCallback is the OnArrival duration above which subsequent
	// sequence-gap losses are attributed to the callback having blocked
	// the receive loop (SinkStats.LostWhileBlocked and
	// hap_netgen_packets_dropped_blocked_total). 0 defaults to 1ms;
	// negative disables the attribution.
	SlowCallback time.Duration
}

// sinkReadBuffer is the receive buffer a sink asks the kernel for, in
// bytes. At Linux's default (212,992 bytes) a socket that is not being
// read holds only ~256 small loopback datagrams, so a sink busy between
// reads loses most of a burst; 4 MiB holds thousands. The kernel caps the
// request at net.core.rmem_max.
const sinkReadBuffer = 4 << 20

// NewSink listens on addr ("127.0.0.1:0" picks a free port).
func NewSink(addr string) (*Sink, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netgen: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("netgen: listen %s: %w", addr, err)
	}
	// A socket left at the default buffer still receives; the request
	// only saves bursts, so a refusal is not an error.
	_ = conn.SetReadBuffer(sinkReadBuffer)
	return &Sink{conn: conn}, nil
}

// Addr returns the bound address (with the concrete port).
func (s *Sink) Addr() string { return s.conn.LocalAddr().String() }

// Close releases the socket.
func (s *Sink) Close() error { return s.conn.Close() }

// AdaptiveIdle sizes a Collect idle timeout for a schedule replayed at the
// given compression (<= 0 means real time): twenty times the longest
// compressed inter-arrival gap plus half a second of jitter headroom,
// floored at one second. Scaling from the schedule's own burst structure —
// rather than a fixed wall-clock constant — means a loaded host stretches
// the deadline with the traffic instead of cutting a slow replay short.
func AdaptiveIdle(s *Schedule, compression float64) time.Duration {
	if compression <= 0 {
		compression = 1
	}
	var maxGap, prev float64
	for _, a := range s.Arrivals {
		if g := a.T - prev; g > maxGap {
			maxGap = g
		}
		prev = a.T
	}
	idle := 20*time.Duration(maxGap/compression*float64(time.Second)) + 500*time.Millisecond
	if idle < time.Second {
		idle = time.Second
	}
	return idle
}

// Collect reads until expect packets arrived, the idle timeout passes with
// nothing received, or ctx is cancelled. idle <= 0 defaults to one second.
func (s *Sink) Collect(ctx context.Context, expect int, idle time.Duration) (SinkStats, error) {
	if idle <= 0 {
		idle = time.Second
	}
	var (
		st        SinkStats
		iaWelford stats.Welford
		times     []float64
		lastRecv  time.Time
		lastSeq   uint64
		haveSeq   bool
		closed    bool
		cbDead    bool // OnArrival panicked; disabled for this Collect
		cbSlow    bool // last OnArrival overran the SlowCallback threshold
	)
	slowAfter := s.SlowCallback
	if slowAfter == 0 {
		slowAfter = time.Millisecond
	}
	buf := make([]byte, 65536)
	start := time.Now()
	for expect <= 0 || st.Received < expect {
		deadline := time.Now().Add(idle)
		if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
			deadline = dl
		}
		if err := s.conn.SetReadDeadline(deadline); err != nil {
			if errors.Is(err, net.ErrClosed) {
				closed = true
				break
			}
			return st, err
		}
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				break // idle: the sender is done
			}
			if errors.Is(err, net.ErrClosed) {
				closed = true
				break
			}
			return st, err
		}
		pkt, err := Decode(buf[:n])
		if err != nil {
			continue // ignore foreign datagrams
		}
		now := time.Now()
		st.BytesTotal += int64(n)
		obsBytesReceived.Add(int64(n))
		if st.Received == 0 {
			st.FirstSeq = pkt.Seq
		} else {
			iaWelford.Add(now.Sub(lastRecv).Seconds())
			switch {
			case pkt.Seq > lastSeq+1:
				gap := int(pkt.Seq - lastSeq - 1)
				st.Lost += gap
				obsPacketsDropped.Add(int64(gap))
				if cbSlow {
					st.LostWhileBlocked += gap
					obsPacketsDroppedBlocked.Add(int64(gap))
				}
			case pkt.Seq <= lastSeq && haveSeq:
				st.Reordered++
				obsPacketsReordered.Inc()
			}
		}
		cbSlow = false
		sec := now.Sub(start).Seconds()
		times = append(times, sec)
		if s.OnArrival != nil && !cbDead {
			if !s.callArrival(sec) {
				cbDead = true
			} else if slowAfter > 0 && time.Since(now) > slowAfter {
				cbSlow = true
			}
		}
		lastRecv = now
		lastSeq = pkt.Seq
		haveSeq = true
		st.LastSeq = pkt.Seq
		st.Received++
		obsPacketsReceived.Inc()
		if ctx.Err() != nil {
			break
		}
	}
	st.Elapsed = time.Since(start)
	st.MeanIA = iaWelford.Mean()
	obsMeanIA.Set(st.MeanIA)
	st.SCV = iaWelford.SCV()
	if len(times) > 10 {
		st.IDCWindow = (times[len(times)-1] - times[0]) / 20
		st.IDC = stats.IDC(times, st.IDCWindow)
	}
	if closed {
		return st, ErrSinkClosed
	}
	return st, nil
}

// callArrival runs the OnArrival callback behind a recover: a panicking
// consumer must not take down the receive loop, it just loses its feed
// (counted, and visible on the panic counter).
func (s *Sink) callArrival(sec float64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			obsCallbackPanics.Inc()
			ok = false
		}
	}()
	s.OnArrival(sec)
	return true
}
