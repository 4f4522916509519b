package netgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"hap/internal/core"
	"hap/internal/haperr"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Seq: 42, SendUnix: 123456789, Class: 3, PadLen: 16}
	b := p.Encode(nil)
	if len(b) != HeaderSize+16 {
		t.Fatalf("encoded length %d", len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("roundtrip: %+v != %+v", got, p)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short packet accepted")
	}
	b := Packet{Seq: 1}.Encode(nil)
	b[0] = 0xFF // corrupt magic
	if _, err := Decode(b); err == nil {
		t.Error("bad magic accepted")
	}
	b2 := Packet{Seq: 1, PadLen: 4}.Encode(nil)
	if _, err := Decode(b2[:len(b2)-1]); err == nil {
		t.Error("truncated padding accepted")
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(seq uint64, ts int64, class uint32, pad uint8) bool {
		p := Packet{Seq: seq, SendUnix: ts, Class: class, PadLen: uint32(pad)}
		got, err := Decode(p.Encode(nil))
		return err == nil && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGenerateHAPSchedule(t *testing.T) {
	m := core.PaperParams(20)
	s, err := GenerateHAP(m, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanRate()-8.25)/8.25 > 0.25 {
		t.Errorf("schedule rate = %v, want ≈ 8.25", s.MeanRate())
	}
	// Arrival times must be sorted and within the horizon, and every
	// message type's leaf must appear as its own class.
	prev := 0.0
	seen := make([]bool, m.NumLeaves())
	for _, a := range s.Arrivals {
		if a.T < prev || a.T > s.Horizon {
			t.Fatalf("bad arrival time %v (prev %v)", a.T, prev)
		}
		if a.Class < 0 || a.Class >= len(seen) {
			t.Fatalf("class %d outside [0, %d)", a.Class, len(seen))
		}
		prev = a.T
		seen[a.Class] = true
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("class %d never generated", k)
		}
	}
}

func TestGeneratePoissonSchedule(t *testing.T) {
	s, err := GeneratePoisson(50, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanRate()-50)/50 > 0.05 {
		t.Errorf("rate = %v", s.MeanRate())
	}
	// A NaN rate would schedule arrivals at NaN times and an infinite one
	// every arrival at t = 0, so neither run could reach its horizon.
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := GeneratePoisson(rate, 10, 1); !errors.Is(err, haperr.ErrBadParameter) {
			t.Errorf("rate %v: err %v, want ErrBadParameter", rate, err)
		}
	}
}

func TestGenerateOnOffSchedule(t *testing.T) {
	tl := core.NewOnOff(0.5, 0.1, 10, 100)
	s, err := GenerateOnOff(tl, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MeanRate()-50)/50 > 0.2 {
		t.Errorf("rate = %v, want ≈ 50", s.MeanRate())
	}
}

func TestSendReceiveLoopback(t *testing.T) {
	sink, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	s, err := GeneratePoisson(200, 5, 11) // ~1000 packets of model time 5 s
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The collector's completion deadline scales with the schedule's own
	// burst structure instead of a fixed wall-clock constant, so a loaded
	// host that stretches the replay stretches the deadline with it.
	const compression = 100 // 5 model seconds into ~50 ms of wall time
	idle := AdaptiveIdle(s, compression)
	if idle < time.Second {
		t.Fatalf("AdaptiveIdle = %v, want at least the 1 s floor", idle)
	}
	dropsBefore := obsPacketsDropped.Value()

	// The streaming hook must see every decoded packet, in order, with
	// non-negative receiver-clock times (this is what hapfit -listen uses).
	hookCalls := 0
	prevSec := -1.0
	sink.OnArrival = func(sec float64) {
		if sec < prevSec {
			t.Errorf("OnArrival time went backwards: %g after %g", sec, prevSec)
		}
		prevSec = sec
		hookCalls++
	}

	done := make(chan SinkStats, 1)
	go func() {
		st, err := sink.Collect(ctx, len(s.Arrivals), idle)
		if err != nil {
			t.Errorf("collect: %v", err)
		}
		done <- st
	}()

	sendStats, err := Send(ctx, sink.Addr(), s, SenderConfig{Compression: compression, PayloadPad: 32})
	if err != nil {
		t.Fatal(err)
	}
	st := <-done
	if sendStats.Sent != len(s.Arrivals) {
		t.Errorf("sent %d of %d", sendStats.Sent, len(s.Arrivals))
	}
	if drops := obsPacketsDropped.Value() - dropsBefore; drops > 0 {
		t.Logf("loopback dropped %d packets (sequence gaps at the sink)", drops)
	}
	if hookCalls != st.Received {
		t.Errorf("OnArrival fired %d times for %d received packets", hookCalls, st.Received)
	}
	if st.BytesTotal < int64(st.Received*(HeaderSize+32)) {
		t.Errorf("byte count %d too small", st.BytesTotal)
	}
	if testing.Short() {
		// Received fraction and interarrival statistics depend on the host
		// keeping pace with the compressed replay; don't judge them on a
		// constrained -short run.
		t.Skip("skipping wall-clock-sensitive delivery assertions in -short mode")
	}
	// Loopback UDP may drop under burst; accept minor loss.
	if st.Received < sendStats.Sent*9/10 {
		t.Errorf("received %d of %d", st.Received, sendStats.Sent)
	}
	if st.MeanIA <= 0 {
		t.Error("no interarrival measured")
	}
}

func TestAdaptiveIdle(t *testing.T) {
	s, err := GeneratePoisson(200, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Fast replays hit the one-second floor.
	if got := AdaptiveIdle(s, 100); got < time.Second {
		t.Errorf("AdaptiveIdle(compress=100) = %v, below the floor", got)
	}
	// Real-time replay of a sparse schedule scales past the floor: a lone
	// packet at t=60 s gives a 60 s worst gap, so the idle window must
	// comfortably exceed it.
	sparse := &Schedule{Horizon: 60, Arrivals: []Arrival{{T: 60}}}
	if got := AdaptiveIdle(sparse, 1); got <= 60*time.Second {
		t.Errorf("AdaptiveIdle(sparse, real time) = %v, want > the 60 s gap", got)
	}
	// Non-positive compression means real time.
	if got, want := AdaptiveIdle(sparse, 0), AdaptiveIdle(sparse, 1); got != want {
		t.Errorf("AdaptiveIdle(compress=0) = %v, want %v", got, want)
	}
}

func TestSendCancelled(t *testing.T) {
	sink, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	s, _ := GeneratePoisson(10, 100, 1) // 100 model seconds
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // immediately
	_, err = Send(ctx, sink.Addr(), s, SenderConfig{Compression: 1})
	if err == nil {
		t.Error("cancelled send should report the context error")
	}
}

// TestRejectsBadParameters: Send refuses a pad that would wrap to ~4 GiB
// or overflow a datagram and a compression that would make every packet
// due at once, before it dials (an empty address fails to dial with
// another error); every generator refuses a horizon that is not positive
// and finite.
func TestRejectsBadParameters(t *testing.T) {
	s := &Schedule{Arrivals: []Arrival{{T: 0}}, Horizon: 1}
	send := func(pad int, compression float64) func() error {
		return func() error {
			_, err := Send(context.Background(), "", s, SenderConfig{Compression: compression, PayloadPad: pad})
			return err
		}
	}
	type testCase struct {
		name string
		run  func() error
		bad  bool
	}
	cases := []testCase{
		{"pad -5", send(-5, 1), true},
		{"pad past a datagram", send(maxDatagram-HeaderSize+1, 1), true},
		{"largest pad", send(maxDatagram-HeaderSize, 1), false},
		{"compression NaN", send(64, math.NaN()), true},
		{"compression +Inf", send(64, math.Inf(1)), true},
		{"compression -Inf", send(64, math.Inf(-1)), true},
	}
	for name, gen := range map[string]func(horizon float64) (*Schedule, error){
		"hap":     func(h float64) (*Schedule, error) { return GenerateHAP(core.PaperParams(20), h, 1) },
		"poisson": func(h float64) (*Schedule, error) { return GeneratePoisson(8.25, h, 1) },
		"onoff":   func(h float64) (*Schedule, error) { return GenerateOnOff(core.NewOnOff(0.5, 0.1, 10, 100), h, 1) },
	} {
		for _, h := range []float64{math.NaN(), 0, -1, math.Inf(1)} {
			gen, h := gen, h
			cases = append(cases, testCase{fmt.Sprintf("%s horizon %v", name, h), func() error {
				_, err := gen(h)
				return err
			}, true})
		}
	}
	for _, tc := range cases {
		err := tc.run()
		if got := errors.Is(err, haperr.ErrBadParameter); got != tc.bad || err == nil {
			t.Errorf("%s: err %v, want ErrBadParameter %v", tc.name, err, tc.bad)
		}
	}
}

func TestSinkIdleTimeout(t *testing.T) {
	sink, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	start := time.Now()
	st, err := sink.Collect(context.Background(), 10, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != 0 {
		t.Error("received ghost packets")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("idle timeout did not fire promptly")
	}
}
