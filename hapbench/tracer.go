package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hap/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; the program itself carries no span instrumentation.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a phase root
	Cycle  int     `json:"cycle"`  // repetition (or refit cycle) the span belongs to
	Phase  string  `json:"phase"`
	Layer  string  `json:"layer"` // module whose self time the span counts toward
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer's epoch
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// residualLayer labels a phase root: its self time is the benchmark's own
// work between layer calls.
const residualLayer = "residual"

// tracer keeps spans in memory until the run ends. When off, begin and end
// cost one branch, so untraced runs measure the program alone.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span // span id i is spans[i-1]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 while tracing is off).
func (t *tracer) begin(phase, layer, name string, parent, cycle int) int {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Cycle: cycle, Phase: phase, Layer: layer, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record stores a span whose bounds were measured elsewhere (a refit cycle
// of the daemon, seen from the client), whether or not tracing is on.
func (t *tracer) record(phase, layer, name string, cycle int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Cycle: cycle, Phase: phase, Layer: layer, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds()})
}

// selfTimes sums, per layer, the self time of the phase's spans: a span's
// duration minus the durations of its direct children. The phase roots'
// self time is reported under residualLayer, so the layers plus the
// residual add up to the roots' total wall time, which is returned with
// the number of roots (the phase's units).
func (t *tracer) selfTimes(phase string) (wall float64, self map[string]float64, units int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int]float64{}
	for _, s := range t.spans {
		if s.Phase == phase && s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	self = map[string]float64{}
	for _, s := range t.spans {
		if s.Phase != phase {
			continue
		}
		self[s.Layer] += s.dur() - children[s.ID]
		if s.Parent == 0 {
			wall += s.dur()
			units++
		}
	}
	return wall, self, units
}

// shares splits the mean operation of the given phases into layers. op is
// the sum over the phases of the mean wall time of a unit; a layer's share
// is its self time per unit, summed over the phases, divided by op.
func (t *tracer) shares(phases ...string) (op float64, share map[string]float64) {
	share = map[string]float64{}
	for _, ph := range phases {
		wall, self, units := t.selfTimes(ph)
		if units == 0 {
			continue
		}
		op += wall / float64(units)
		for l, v := range self {
			share[l] += v / float64(units)
		}
	}
	for l := range share {
		share[l] /= op
	}
	return op, share
}

// perCycle totals, per cycle, the durations of the phase's spans with the
// given name, in cycle order.
func (t *tracer) perCycle(phase, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := map[int]float64{}
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == name {
			by[s.Cycle] += s.dur()
		}
	}
	cycles := make([]int, 0, len(by))
	for c := range by {
		cycles = append(cycles, c)
	}
	sort.Ints(cycles)
	out := make([]float64, len(cycles))
	for i, c := range cycles {
		out[i] = by[c]
	}
	return out
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// breakdown prints the phase's wall time as Σ layer self time + residual,
// with the tracing overhead measured against the untraced half.
func (t *tracer) breakdown(w io.Writer, phase string, overhead float64) {
	wall, self, _ := t.selfTimes(phase)
	layers := make([]string, 0, len(self))
	for l := range self {
		if l != residualLayer {
			layers = append(layers, l)
		}
	}
	sort.Strings(layers)
	layers = append(layers, residualLayer)
	fmt.Fprintf(w, "breakdown %-10s wall %9.4f s = Σ self + residual   (tracing overhead %+.2f%%)\n", phase, wall, 100*overhead)
	for _, l := range layers {
		share := 0.0
		if wall > 0 {
			share = self[l] / wall
		}
		fmt.Fprintf(w, "  %-10s %9.4f s %6.2f%%\n", l, self[l], 100*share)
	}
}

// counters is a point-in-time copy of the program's own exported
// counters plus the Go allocator's malloc count.
type counters struct {
	obs     map[string]float64
	mallocs uint64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{obs: obs.Default.Snapshot(), mallocs: ms.Mallocs}
}

// delta returns how far the named counter moved since c.
func (c counters) delta(later counters, name string) float64 { return later.obs[name] - c.obs[name] }
