package sim

import (
	"fmt"
	"math"
	"math/rand"

	"hap/internal/dist"
)

// CBRSource emits messages with deterministic spacing — the "real-time
// application like voice" of the paper's Section 6 multiplexing
// discussion. Jitter, when non-nil, perturbs each interval (e.g. a small
// uniform dither); Phase offsets the first emission.
type CBRSource struct {
	Interval float64
	Svc      dist.Distribution
	Class    int
	Phase    float64
	Jitter   dist.Distribution

	rng *rand.Rand
	e   *Engine
	id  int32
	st  int32
}

// NewCBRSource builds a constant-rate source with one message every
// interval seconds; the interval must be positive and finite.
func NewCBRSource(interval float64, svc dist.Distribution, class int, rng *rand.Rand) *CBRSource {
	if !(interval > 0) || math.IsInf(interval, 1) {
		panic("sim: CBR interval must be positive and finite")
	}
	return &CBRSource{Interval: interval, Svc: svc, Class: class, rng: rng}
}

func (s *CBRSource) String() string { return fmt.Sprintf("cbr(interval=%g)", s.Interval) }

// Install schedules the first emission.
func (s *CBRSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerCBR(s)
	s.st = st
	e.scheduleEvAfter(s.Phase+s.nextGap(), evCBREmit, s.id, 0, 0, 0)
}

func (s *CBRSource) nextGap() float64 {
	g := s.Interval
	if s.Jitter != nil {
		g += s.Jitter.Sample(s.rng)
		if g < 0 {
			g = 0
		}
	}
	return g
}

func (s *CBRSource) emit() {
	s.e.arriveInto(s.st, s.Svc, s.Class)
	s.e.scheduleEvAfter(s.nextGap(), evCBREmit, s.id, 0, 0, 0)
}

// Multi bundles several sources into one: installing it installs all of
// them on the same engine/queue — the superposition ("multiplexing") the
// paper's Section 6 warns about. Sources sharing the queue must use
// disjoint class indices if per-class statistics are wanted.
type Multi struct {
	Sources []Source
}

// NewMulti bundles sources.
func NewMulti(sources ...Source) *Multi {
	if len(sources) == 0 {
		panic("sim: Multi needs at least one source")
	}
	return &Multi{Sources: sources}
}

func (m *Multi) String() string {
	s := "multi("
	for i, src := range m.Sources {
		if i > 0 {
			s += " + "
		}
		s += src.String()
	}
	return s + ")"
}

// Install installs every bundled source on station st.
func (m *Multi) Install(e *Engine, st int32) {
	for _, src := range m.Sources {
		src.Install(e, st)
	}
}
