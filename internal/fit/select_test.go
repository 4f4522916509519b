package fit

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"hap/internal/core"
	"hap/internal/sim"
)

func TestFitReportIsJSONSerialisable(t *testing.T) {
	arrivals := int64(60_000)
	rt, err := Simulate(SimPoisson(8.25, 20), RoundTripConfig{
		MeanRate: 8.25, Arrivals: arrivals, Reps: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fit(context.Background(), rt.Times, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Best != rep.Best || len(back.Candidates) != len(rep.Candidates) {
		t.Errorf("round-tripped report differs: best %q vs %q", back.Best, rep.Best)
	}
}

func TestFitRestrictsModels(t *testing.T) {
	rt, err := Simulate(SimPoisson(8.25, 20), RoundTripConfig{
		MeanRate: 8.25, Arrivals: 30_000, Reps: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fit(context.Background(), rt.Times, Options{Models: []string{"poisson", "mmpp2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 2 {
		t.Fatalf("got %d candidates, want 2", len(rep.Candidates))
	}
	for _, c := range rep.Candidates {
		if c.Name != "poisson" && c.Name != "mmpp2" {
			t.Errorf("unexpected candidate %q", c.Name)
		}
	}
}

func TestFitUnknownModel(t *testing.T) {
	rt, err := Simulate(SimPoisson(8.25, 20), RoundTripConfig{
		MeanRate: 8.25, Arrivals: 30_000, Reps: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Fit(context.Background(), rt.Times, Options{Models: []string{"bogus", "poisson"}})
	if err != nil {
		t.Fatal(err)
	}
	var bogus *Candidate
	for i := range rep.Candidates {
		if rep.Candidates[i].Name == "bogus" {
			bogus = &rep.Candidates[i]
		}
	}
	if bogus == nil || !strings.Contains(bogus.Error, "unknown model class") {
		t.Errorf("bogus candidate = %+v", bogus)
	}
	if rep.Best != "poisson" {
		t.Errorf("Best = %q, want poisson", rep.Best)
	}
}

func TestFitCancelled(t *testing.T) {
	times := make([]float64, 64)
	for i := range times {
		times[i] = float64(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Fit(ctx, times, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFitGoldenBits pins a whole model-selection run bit for bit on two
// bursty traces: P0 at μ” = 20 and an ON-OFF source. Every candidate's
// rank, BIC, log-likelihood, rate and iteration count must hold, so a
// change to the moment fitters' search, the EM core or the scoring shows
// here. Like the solver's pins, the bits hold on linux/amd64 at the
// default GOAMD64=v1.
func TestFitGoldenBits(t *testing.T) {
	type pin struct {
		name              string
		bic, loglik, rate uint64
		iterations        int
	}
	cases := []struct {
		name     string
		run      func(sim.Config) *sim.RunResult
		cfg      sim.Config
		arrivals int
		pins     []pin
	}{
		{
			name: "P0",
			run: func(cfg sim.Config) *sim.RunResult {
				return sim.RunHAP(core.PaperParams(20), cfg)
			},
			cfg:      sim.Config{Horizon: 3000, Seed: 5},
			arrivals: 23_057,
			pins: []pin{
				{"mmpp2", 0xc0e81deca3196b53, 0x40d822f27bfc1743, 0x401f0864a1a62c3a, 32},
				{"onoff", 0xc0e7ba306a53d835, 0x40d7bdf4ccfdd929, 0x401ecfd79c6e7a45, 192},
				{"hap", 0xc0e7b7ae1cdb42fa, 0x40d7bdf56bf699e6, 0x401ecfd79c6e7a46, 1416},
				{"poisson", 0xc0e7728fd1607c02, 0x40d773d1479926fe, 0x401ecfd79c6e7a45, 0},
			},
		},
		{
			name: "onoff",
			run: func(cfg sim.Config) *sim.RunResult {
				return sim.RunOnOff(core.NewOnOff(0.05, 0.01, 2, 20), cfg)
			},
			cfg:      sim.Config{Horizon: 20_000, Seed: 9},
			arrivals: 200_623,
			pins: []pin{
				{"mmpp2", 0xc120ace5e7cea33d, 0x4110ad478dd80d86, 0x40241ec475884cfa, 28},
				{"onoff", 0xc1202fc9f4414e42, 0x4110301330c85df9, 0x40240ffc76028485, 192},
				{"hap", 0xc1202f97834649b0, 0x4110301192d20e8c, 0x40240ffc76028485, 1416},
				{"poisson", 0xc11ff15535e0b709, 0x410ff18608e56c2e, 0x40240ffc76028485, 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Measure.KeepArrivalTimes = 1 << 20
			times := tc.run(cfg).Meas.Arrivals
			if len(times) != tc.arrivals {
				t.Fatalf("%d arrivals, want %d", len(times), tc.arrivals)
			}
			rep, err := Fit(context.Background(), times, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Best != tc.pins[0].name {
				t.Errorf("Best = %q, want %q", rep.Best, tc.pins[0].name)
			}
			if len(rep.Candidates) != len(tc.pins) {
				t.Fatalf("%d candidates, want %d", len(rep.Candidates), len(tc.pins))
			}
			for i, want := range tc.pins {
				c := rep.Candidates[i]
				if c.Name != want.name || c.Error != "" {
					t.Errorf("candidate %d = %q (error %q), want %q", i, c.Name, c.Error, want.name)
					continue
				}
				for _, f := range []struct {
					what string
					got  float64
					want uint64
				}{{"BIC", c.BIC, want.bic}, {"LogLik", c.LogLik, want.loglik}, {"Rate", c.Rate, want.rate}} {
					if got := math.Float64bits(f.got); got != f.want {
						t.Errorf("%s %s bits %#x (%v), want %#x (%v)", c.Name, f.what, got, f.got, f.want, math.Float64frombits(f.want))
					}
				}
				if c.Diag.Iterations != want.iterations {
					t.Errorf("%s iterations %d, want %d", c.Name, c.Diag.Iterations, want.iterations)
				}
			}
		})
	}
}
