package sim

import (
	"fmt"
	"math"
)

// CBRSource emits a message every Interval seconds, served at rate Mu —
// the "real-time application like voice" of the paper's Section 6
// multiplexing discussion. It draws no randomness.
type CBRSource struct {
	Interval float64
	Mu       float64
	Class    int

	e  *Engine
	id int32
	st int32
}

// NewCBRSource builds a constant-rate source with one message of the given
// class every interval seconds; the interval and the service rate must be
// positive and finite.
func NewCBRSource(interval, mu float64, class int) *CBRSource {
	checkPositive("CBR interval", interval)
	checkPositive("service rate", mu)
	return &CBRSource{Interval: interval, Mu: mu, Class: class}
}

func (s *CBRSource) String() string { return fmt.Sprintf("cbr(interval=%g)", s.Interval) }

// Install schedules the first emission, one interval in.
func (s *CBRSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerCBR(s)
	s.st = st
	e.scheduleEvAfter(s.Interval, evCBREmit, s.id, 0, 0, 0)
}

func (s *CBRSource) emit() {
	s.e.arriveInto(s.st, s.Mu, s.Class)
	s.e.scheduleEvAfter(s.Interval, evCBREmit, s.id, 0, 0, 0)
}

// checkPositive panics unless v is positive and finite. A NaN rate or
// interval schedules events at NaN times, and a zero interval or an
// infinite rate schedules every event at one instant: either way the run
// never reaches its horizon.
func checkPositive(what string, v float64) {
	if !(v > 0) || math.IsInf(v, 1) {
		panic(fmt.Sprintf("sim: %s must be positive and finite (got %v)", what, v))
	}
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
