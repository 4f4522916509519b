package ctrl

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hap/internal/fit"
	"hap/internal/mmpp"
)

// cyclePin is what one solve→admit cycle publishes, with every float as
// its exact bits.
type cyclePin struct {
	solveOK  bool
	delay    uint64
	sigma    uint64
	rho      uint64
	admitOK  bool
	admit    bool
	headroom uint64
	decDelay uint64
	reason   string
}

func pinOf(solveOK bool, delay, sigma, rho float64, admitOK bool, dec decision) cyclePin {
	return cyclePin{
		solveOK:  solveOK,
		delay:    math.Float64bits(delay),
		sigma:    math.Float64bits(sigma),
		rho:      math.Float64bits(rho),
		admitOK:  admitOK,
		admit:    dec.Admit,
		headroom: math.Float64bits(dec.Headroom),
		decDelay: math.Float64bits(dec.Delay),
		reason:   dec.Reason,
	}
}

// pinConfig is the daemon config the bit pins run under: a service rate
// and target that put the fitted models' headroom inside (0, FMax).
func pinConfig() Config {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.ServiceRate = 400
	cfg.TargetDelay = 0.008
	cfg.applyDefaults()
	return cfg
}

// Fitted models the pins solve: a 1.92x rate move from cool to warm, so
// the second cycle runs on the warm σ chain.
var (
	pinCool = mmpp.MMPP2{R0: 50, R1: 200, Q01: 1, Q10: 1}
	pinWarm = mmpp.MMPP2{R0: 80, R1: 400, Q01: 1, Q10: 1}
)

// TestSolveAdmitGoldenBits pins a stream's solve→admit cycle bit for
// bit: a cold cycle, a warm second cycle on the same stream, and an
// unstable cycle at μ = 10. Delay, σ, ρ and headroom are exact
// Float64bits (linux/amd64, GOAMD64=v1); admit and the reason text are
// exact strings.
func TestSolveAdmitGoldenBits(t *testing.T) {
	cfg := pinConfig()
	s, err := newStream("s0", nil, &cfg, newPool(1), StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	su, err := newStream("s1", nil, &cfg, newPool(1), StreamOverride{ServiceRate: 10})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(s *Stream, m mmpp.MMPP2) cyclePin {
		var pub published
		s.solveAndAdmit(m, &pub)
		return pinOf(pub.solveOK, pub.delay, pub.sigma, pub.rho, pub.admitOK, pub.dec)
	}
	for _, tc := range []struct {
		name string
		got  cyclePin
		want cyclePin
	}{
		{"cold", cycle(s, pinCool), cyclePin{
			solveOK: true, delay: 0x3f70f78ddb6d979b, sigma: 0x3fd95fdc105c70a4, rho: 0x3fd4000000000000,
			admitOK: true, admit: true, headroom: 0x3ffe4dc08d551d6a, decDelay: 0x3f70f78ddb6d979b}},
		{"warm", cycle(s, pinWarm), cyclePin{
			solveOK: true, delay: 0x3f82535f331eec0f, sigma: 0x3fe70f3dc52741bc, rho: 0x3fe3333333333333,
			admitOK: true, admit: false, headroom: 0x3fee0c019ad85dfc, decDelay: 0x3f82535f331eec0f,
			reason: "observed load exceeds the admissible workload for the delay target"}},
		{"unstable", cycle(su, pinCool), cyclePin{
			admitOK: true, reason: "fitted load unstable at the configured service rate"}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s cycle:\n  got  %#v\n  want %#v", tc.name, tc.got, tc.want)
		}
	}
}

// TestAggregateGoldenBits pins the aggregate's solve→admit cycle over two
// fixed fitted MMPP2s, four cycles in a row on one warm aggregate σ
// chain: at a loose and a tight target, each with both streams admitting
// and with the second stream denying, so every wording of the
// conservative merge is pinned.
func TestAggregateGoldenBits(t *testing.T) {
	cfg := pinConfig()
	d := &Daemon{cfg: cfg}
	for i, m := range []mmpp.MMPP2{pinCool, pinWarm} {
		s, err := newStream(fmt.Sprintf("s%d", i), nil, &d.cfg, newPool(1), StreamOverride{})
		if err != nil {
			t.Fatal(err)
		}
		s.pub = published{
			hasFit: true, fitAt: time.Now(), converged: true,
			fit:     fit.RefitReport{R0: m.R0, R1: m.R1, Q01: m.Q01, Q10: m.Q10},
			verdict: verdict{solveOK: true, admitOK: true, dec: decision{Admit: true}},
		}
		d.streams = append(d.streams, s)
	}
	const wantRate = uint64(0x4076d00000000000) // 365 = 125 + 240
	for _, tc := range []struct {
		target   float64
		s1Admits bool
		want     cyclePin
	}{
		{0.05, true, cyclePin{
			solveOK: true, delay: 0x3fa3802f53f70934, sigma: 0x3fede649e3c4199a, rho: 0x3fed333333333333,
			admitOK: true, admit: true, headroom: 0x3ff05b00c7d5ed06, decDelay: 0x3fa3802f53f70934}},
		{0.05, false, cyclePin{
			solveOK: true, delay: 0x3fa3802f5433e169, sigma: 0x3fede649e3caa753, rho: 0x3fed333333333333,
			admitOK: true, admit: false, headroom: 0x3ff05b00c7d5ed06, decDelay: 0x3fa3802f5433e169,
			reason: "aggregate headroom suffices but per-stream targets deny: s1"}},
		{0.008, false, cyclePin{
			solveOK: true, delay: 0x3fa3802f53f70934, sigma: 0x3fede649e3c4199a, rho: 0x3fed333333333333,
			admitOK: true, admit: false, headroom: 0x3fe5ed81bce63a5d, decDelay: 0x3fa3802f53f70934,
			reason: "aggregate load exceeds the admissible workload; streams denying: s1"}},
		{0.008, true, cyclePin{
			solveOK: true, delay: 0x3fa3802f5433e169, sigma: 0x3fede649e3caa753, rho: 0x3fed333333333333,
			admitOK: true, admit: false, headroom: 0x3fe5ed81bce63a5d, decDelay: 0x3fa3802f5433e169,
			reason: "aggregate load exceeds the admissible workload for the delay target"}},
	} {
		d.cfg.TargetDelay = tc.target
		d.streams[1].pub.dec.Admit = tc.s1Admits
		d.recomputeAggregate(time.Now())
		pub := d.agg.snapshot()
		if got := math.Float64bits(pub.meanRate); got != wantRate {
			t.Errorf("target %g, s1 admits %v: mean rate bits %#x, want %#x", tc.target, tc.s1Admits, got, wantRate)
		}
		if got := pinOf(pub.solveOK, pub.delay, pub.sigma, pub.rho, pub.admitOK, pub.dec); got != tc.want {
			t.Errorf("target %g, s1 admits %v:\n  got  %#v\n  want %#v", tc.target, tc.s1Admits, got, tc.want)
		}
	}
}
