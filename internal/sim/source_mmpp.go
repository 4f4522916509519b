package sim

import (
	"fmt"
	"math/rand"

	"hap/internal/mmpp"
)

// MMPPSource simulates an arbitrary Markov-modulated Poisson process: the
// modulating chain moves between states, and in state s messages arrive
// Poisson(rate_s), each served at rate Mu. The initial state is drawn from
// the chain's stationary law (state 0 when that law cannot be solved). A
// generation counter carried in the event payload lazily cancels the
// arrival clock on every state change.
type MMPPSource struct {
	Proc *mmpp.MMPP
	Mu   float64

	rng   *rand.Rand
	e     *Engine
	id    int32
	st    int32
	state int
	gen   int32
}

// NewMMPPSource builds an MMPP source; the service rate must be positive
// and finite.
func NewMMPPSource(proc *mmpp.MMPP, mu float64, rng *rand.Rand) *MMPPSource {
	checkPositive("service rate", mu)
	return &MMPPSource{Proc: proc, Mu: mu, rng: rng}
}

func (s *MMPPSource) String() string {
	return fmt.Sprintf("mmpp(states=%d)", s.Proc.Chain.N())
}

// Install schedules the modulator and arrival clocks.
func (s *MMPPSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerMMPP(s)
	s.st = st
	if pi, err := s.Proc.Stationary(); err == nil {
		u := s.rng.Float64()
		var c float64
		for i, p := range pi {
			c += p
			if u <= c {
				s.state = i
				break
			}
		}
	}
	s.enterState(s.state)
}

func (s *MMPPSource) enterState(state int) {
	s.state = state
	s.gen++
	out := s.Proc.Chain.OutRate(state)
	if out > 0 {
		s.e.scheduleEvAfter(s.rng.ExpFloat64()/out, evMMPPSwitch, s.id, s.gen, 0, 0)
	}
	s.scheduleArrival()
}

func (s *MMPPSource) switchState(gen int32) {
	if gen != s.gen {
		return
	}
	s.enterState(s.pickNext())
}

func (s *MMPPSource) pickNext() int {
	trs := s.Proc.Chain.Transitions(s.state)
	total := s.Proc.Chain.OutRate(s.state)
	u := s.rng.Float64() * total
	var c float64
	for _, tr := range trs {
		c += tr.Rate
		if u <= c {
			return tr.To
		}
	}
	return trs[len(trs)-1].To
}

func (s *MMPPSource) scheduleArrival() {
	rate := s.Proc.Rates[s.state]
	if rate <= 0 {
		return // no arrivals until the next state change
	}
	s.e.scheduleEvAfter(s.rng.ExpFloat64()/rate, evMMPPArrive, s.id, s.gen, 0, 0)
}

func (s *MMPPSource) arrive(gen int32) {
	if gen != s.gen {
		return
	}
	s.e.arriveInto(s.st, s.Mu, 0)
	s.scheduleArrival()
}

// MMPP2Source builds an MMPPSource from the 2-state comparator.
func MMPP2Source(m2 mmpp.MMPP2, mu float64, rng *rand.Rand) *MMPPSource {
	return NewMMPPSource(m2.General(), mu, rng)
}
