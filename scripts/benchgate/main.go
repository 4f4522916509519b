// Command benchgate is the `make bench-gate` performance-regression check.
// It reads `go test -json` benchmark captures and enforces two gates:
//
//  1. Allocation anchor: allocs/op of the gated benchmark in the current
//     capture must stay within slack of the committed BENCH_baseline.json.
//     The event loop's zero-allocation steady state is a load-bearing
//     property — a slipped allocs/op means a hot-path allocation crept in,
//     which a timing benchmark alone would drown in noise.
//  2. Trajectory: every benchmark present in both the reference capture
//     (the newest committed BENCH_pr<N>.json) and the fresh one (written
//     by `make bench` to .bench_build/BENCH_current.json, gitignored) is
//     compared on allocs/op (same slack as the anchor) and on its
//     throughput metrics — events/s for the simulator and network
//     benchmarks and arrivals/s for the fitter benchmarks — neither of
//     which may drop below (1 - tolerance) of the reference.
//
// The reference is discovered by scanning the working directory for
// BENCH_pr<N>.json files and taking the highest N (falling back to the
// baseline when none exists); committing a new reference is copying the
// fresh capture to BENCH_pr<N>.json. -current/-prev override the paths.
//
// Tolerance calibration, allocs/op: the event loop allocates only per
// *run* (scheduler, measurement buffers), never per event, so a hot-path
// allocation shows up as millions of allocs/op (once per simulated event),
// not percent. The 1.5x slack absorbs one-shot (-benchtime=1x)
// cross-session noise, observed at up to ~1.3x on an identical tree,
// while a real per-event allocation overshoots it by four orders of
// magnitude.
//
// Tolerance calibration, events/s: the captures are one-shot measurements
// on shared, sometimes single-core runners, where identical trees have
// been observed up to ~1.5x apart between sessions (CPU contention,
// frequency scaling). The default tolerance of 0.5 therefore gates
// *collapse-scale* regressions — an accidentally quadratic scheduler, a
// per-event allocation, a serialization bug — not percent-level drift;
// percent-level claims need seconds-scale -benchtime runs on a quiet
// machine, which CI does not have.
//
//	go run ./scripts/benchgate                  # fresh capture vs newest reference
//	go run ./scripts/benchgate -current BENCH_pr6.json -prev BENCH_pr5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_baseline.json", "committed go test -json capture anchoring the allocs/op gate")
		prev      = flag.String("prev", "", "reference capture for the trajectory gate (default: newest BENCH_pr<N>.json, else the baseline)")
		current   = flag.String("current", ".bench_build/BENCH_current.json", "fresh capture under test, as written by make bench")
		bench     = flag.String("bench", "BenchmarkSimulatorHAPEvents", "benchmark whose allocs/op is anchored against the baseline")
		slack     = flag.Float64("slack", 1.5, "multiplicative allocs/op tolerance")
		headroom  = flag.Int64("headroom", 32, "additive allocs/op tolerance (absorbs one-time setup drift)")
		tolerance = flag.Float64("tolerance", 0.5, "maximum fractional events/s drop versus the reference capture")
	)
	flag.Parse()
	if err := run(*baseline, *prev, *current, *bench, *slack, *headroom, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate:", err)
		os.Exit(1)
	}
}

func run(baseline, prev, current, bench string, slack float64, headroom int64, tolerance float64) error {
	if prev == "" {
		var err error
		if prev, err = discover(baseline); err != nil {
			return err
		}
	}
	fmt.Printf("bench-gate: baseline %s, reference %s, current %s\n", baseline, prev, current)

	base, err := parseCapture(baseline)
	if err != nil {
		return err
	}
	prevRes, err := parseCapture(prev)
	if err != nil {
		return err
	}
	cur, err := parseCapture(current)
	if err != nil {
		return fmt.Errorf("%w (run `make bench` first)", err)
	}

	// Gate 1: allocs/op anchored against the committed baseline.
	b, ok := base[bench]
	if !ok || !b.hasAllocs {
		return fmt.Errorf("%s: no allocs/op for %s (was the capture taken with -benchmem or ReportAllocs?)", baseline, bench)
	}
	c, ok := cur[bench]
	if !ok || !c.hasAllocs {
		return fmt.Errorf("%s: no allocs/op for %s", current, bench)
	}
	limit := int64(float64(b.allocs)*slack) + headroom
	if c.allocs > limit {
		return fmt.Errorf("%s allocs/op regressed: %d > limit %d (baseline %d, slack %.2fx+%d)",
			bench, c.allocs, limit, b.allocs, slack, headroom)
	}
	fmt.Printf("bench-gate: ok — %s at %d allocs/op (baseline %d, limit %d)\n", bench, c.allocs, b.allocs, limit)

	// Gate 2: trajectory versus the reference capture.
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	checked := 0
	for _, name := range names {
		p, ok := prevRes[name]
		if !ok {
			continue // new benchmark this PR: no history to compare
		}
		c := cur[name]
		if p.hasAllocs && c.hasAllocs {
			limit := int64(float64(p.allocs)*slack) + headroom
			if c.allocs > limit {
				return fmt.Errorf("trajectory: %s allocs/op regressed vs %s: %d > limit %d (prev %d)",
					name, prev, c.allocs, limit, p.allocs)
			}
			checked++
		}
		if p.hasEvents && c.hasEvents && p.events > 0 {
			floor := p.events * (1 - tolerance)
			if c.events < floor {
				return fmt.Errorf("trajectory: %s events/s collapsed vs %s: %.4g < floor %.4g (prev %.4g, tolerance %.0f%%)",
					name, prev, c.events, floor, p.events, tolerance*100)
			}
			fmt.Printf("bench-gate: ok — %s at %.4g events/s (prev %.4g, floor %.4g)\n",
				name, c.events, p.events, floor)
			checked++
		}
		if p.hasArrivals && c.hasArrivals && p.arrivals > 0 {
			floor := p.arrivals * (1 - tolerance)
			if c.arrivals < floor {
				return fmt.Errorf("trajectory: %s arrivals/s collapsed vs %s: %.4g < floor %.4g (prev %.4g, tolerance %.0f%%)",
					name, prev, c.arrivals, floor, p.arrivals, tolerance*100)
			}
			fmt.Printf("bench-gate: ok — %s at %.4g arrivals/s (prev %.4g, floor %.4g)\n",
				name, c.arrivals, p.arrivals, floor)
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("trajectory: no benchmark common to %s and %s carries allocs/op or events/s", prev, current)
	}
	fmt.Printf("bench-gate: ok — %d trajectory checks against %s\n", checked, prev)
	return nil
}

var prFile = regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)

// discover scans the working directory for committed BENCH_pr<N>.json
// captures and returns the newest, or the baseline when there is none.
func discover(baseline string) (string, error) {
	entries, err := os.ReadDir(".")
	if err != nil {
		return "", err
	}
	newest, n := baseline, -1
	for _, e := range entries {
		if m := prFile.FindStringSubmatch(e.Name()); m != nil {
			if k, _ := strconv.Atoi(m[1]); k > n {
				newest, n = e.Name(), k
			}
		}
	}
	return newest, nil
}

// result is one benchmark's extracted numbers.
type result struct {
	allocs      int64
	events      float64
	arrivals    float64
	hasAllocs   bool
	hasEvents   bool
	hasArrivals bool
}

var (
	allocsRe   = regexp.MustCompile(`(\d+) allocs/op`)
	eventsRe   = regexp.MustCompile(`([0-9.]+(?:e[+-]?[0-9]+)?) events/s`)
	arrivalsRe = regexp.MustCompile(`([0-9.]+(?:e[+-]?[0-9]+)?) arrivals/s`)
)

// parseCapture extracts every benchmark's allocs/op, events/s and
// arrivals/s from a go test -json stream ("...\t 60268217 ns/op\t
// 5332766 events/s\t ... 163 allocs/op"). Sub-benchmarks keep their full
// slash-joined names; when the same benchmark appears more than once in a
// capture (a -count run), the last occurrence of each metric wins.
func parseCapture(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var ev struct {
			Action string `json:"Action"`
			Test   string `json:"Test"`
			Output string `json:"Output"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON noise in the capture
		}
		if ev.Action != "output" || ev.Test == "" {
			continue
		}
		r := out[ev.Test]
		if m := allocsRe.FindStringSubmatch(ev.Output); m != nil {
			if n, err := strconv.ParseInt(m[1], 10, 64); err == nil {
				r.allocs, r.hasAllocs = n, true
			}
		}
		if m := eventsRe.FindStringSubmatch(ev.Output); m != nil {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil {
				r.events, r.hasEvents = v, true
			}
		}
		if m := arrivalsRe.FindStringSubmatch(ev.Output); m != nil {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil {
				r.arrivals, r.hasArrivals = v, true
			}
		}
		if r.hasAllocs || r.hasEvents || r.hasArrivals {
			out[ev.Test] = r
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}
