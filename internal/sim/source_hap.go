package sim

import (
	"fmt"
	"math/rand"

	"hap/internal/core"
	"hap/internal/dist"
)

// HAPSource simulates the full 3-level hierarchy: users arrive and depart,
// spawn applications while present, and live applications emit messages.
// Applications outlive their user ("a user has departed but the
// application this user invoked may be still active"), exactly as the
// model specifies.
//
// Users and applications live in slot tables (see table in engine.go);
// every clock — user departure, application spawn, application departure,
// message emission — is a typed event carrying (slot, generation), so the
// steady-state event stream allocates nothing. Message types are stored
// flattened in declaration order: an emission event names its leaf, and
// leaf k emits at rate[k], is served at mu[k] and counts as class[k].
//
// Install starts the users at their stationary Poisson(ν) law; see
// Install for the applications it starts with.
type HAPSource struct {
	Model *core.Model

	rng   *rand.Rand
	eb    *dist.ExpBatch // batched reader over rng, armed at end of Install
	e     *Engine
	id    int32
	st    int32 // station this source feeds
	users table
	apps  table
	first []int32   // first leaf of each application type, then NumLeaves
	rate  []float64 // emission rate λᵢⱼ per leaf
	mu    []float64 // service rate μᵢⱼ per leaf
	class []int     // message class per leaf (the leaf index for plain HAP)
}

// NewHAPSource builds a source for the model with its own random stream.
func NewHAPSource(m *core.Model, rng *rand.Rand) *HAPSource {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	s := &HAPSource{Model: m, rng: rng}
	for _, a := range m.Apps {
		s.first = append(s.first, int32(len(s.rate)))
		for _, msg := range a.Messages {
			s.class = append(s.class, len(s.rate))
			s.rate = append(s.rate, msg.Lambda)
			s.mu = append(s.mu, msg.Mu)
		}
	}
	s.first = append(s.first, int32(len(s.rate)))
	return s
}

// ClassCount returns the number of message classes (leaves).
func (s *HAPSource) ClassCount() int { return len(s.rate) }

func (s *HAPSource) String() string { return fmt.Sprintf("hap(%s)", s.Model) }

// Install schedules the initial population and the first user arrival.
// The users start at their stationary Poisson(ν) law, each with no
// application yet. Applications start only as orphans of departed users,
// when the x initial users are fewer than ν. For each type i the loop's
// bound redraws Poisson((ν−x)·aᵢ) before every addition, which stops
// sooner than one draw would: 3.70 applications on average at P0 (4.71
// for one draw per type) against the stationary ν·Σaᵢ = 27.5. So the
// application level still carries a transient of order 1/μᵢ.
func (s *HAPSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerHAP(s)
	s.st = st
	nUsers := dist.PoissonSample(s.rng, s.Model.Nu())
	for k := 0; k < nUsers; k++ {
		s.addUser()
	}
	for i := range s.Model.Apps {
		meanOrphans := (s.Model.Nu() - float64(nUsers)) * s.Model.AppLoad(i)
		if meanOrphans > 0 {
			for k := 0; k < dist.PoissonSample(s.rng, meanOrphans); k++ {
				s.addApp(int32(i))
			}
		}
	}
	s.e.scheduleEvAfter(s.exp(s.Model.Lambda), evHAPUserArrive, s.id, 0, 0, 0)
	// From here on every draw this source takes from its stream is
	// exponential, so a block-refilled reader yields the identical
	// sequence (see dist.ExpBatch). Armed last so the install-time mix of
	// uniform (PoissonSample) and exponential draws above stays direct.
	s.eb = dist.NewExpBatch(s.rng)
}

func (s *HAPSource) exp(rate float64) float64 {
	if s.eb != nil {
		return s.eb.Exp() / rate
	}
	return s.rng.ExpFloat64() / rate
}

func (s *HAPSource) userArrive() {
	s.addUser()
	s.e.scheduleEvAfter(s.exp(s.Model.Lambda), evHAPUserArrive, s.id, 0, 0, 0)
}

// addUser creates a live user with its departure and per-type spawn clocks.
func (s *HAPSource) addUser() {
	slot, gen := s.users.add()
	s.e.addUsers(s.st, 1)
	s.e.scheduleEvAfter(s.exp(s.Model.Mu), evHAPUserDepart, s.id, slot, gen, 0)
	for i := range s.Model.Apps {
		s.scheduleSpawn(slot, gen, int32(i))
	}
}

func (s *HAPSource) userDepart(slot, gen int32) {
	if !s.users.ok(slot, gen) {
		return
	}
	s.users.kill(slot)
	s.e.addUsers(s.st, -1)
}

func (s *HAPSource) scheduleSpawn(slot, gen, ti int32) {
	s.e.scheduleEvAfter(s.exp(s.Model.Apps[ti].Lambda), evHAPSpawn, s.id, slot, gen, ti)
}

// spawn fires a user's application-invocation clock for type ti; it is
// lazily cancelled by the user's departure via the generation check.
func (s *HAPSource) spawn(slot, gen, ti int32) {
	if !s.users.ok(slot, gen) {
		return
	}
	s.addApp(ti)
	s.scheduleSpawn(slot, gen, ti)
}

// addApp creates a live application instance with its departure and
// per-leaf emission clocks.
func (s *HAPSource) addApp(ti int32) {
	slot, gen := s.apps.add()
	s.e.addApps(s.st, 1)
	s.e.scheduleEvAfter(s.exp(s.Model.Apps[ti].Mu), evHAPAppDepart, s.id, slot, gen, 0)
	for k := s.first[ti]; k < s.first[ti+1]; k++ {
		s.scheduleEmit(slot, gen, k)
	}
}

func (s *HAPSource) appDepart(slot, gen int32) {
	if !s.apps.ok(slot, gen) {
		return
	}
	s.apps.kill(slot)
	s.e.addApps(s.st, -1)
}

func (s *HAPSource) scheduleEmit(slot, gen, k int32) {
	s.e.scheduleEvAfter(s.exp(s.rate[k]), evHAPEmit, s.id, slot, gen, k)
}

// emit fires an application's message clock for leaf k.
func (s *HAPSource) emit(slot, gen, k int32) {
	if !s.apps.ok(slot, gen) {
		return
	}
	s.e.arriveInto(s.st, s.mu[k], s.class[k])
	s.scheduleEmit(slot, gen, k)
}

// PoissonSource generates Poisson(Rate) messages served at rate Mu — the
// paper's baseline.
type PoissonSource struct {
	Rate float64
	Mu   float64
	rng  *rand.Rand
	eb   *dist.ExpBatch
	e    *Engine
	id   int32
	st   int32
}

// NewPoissonSource builds the baseline source; both rates must be
// positive and finite.
func NewPoissonSource(rate, mu float64, rng *rand.Rand) *PoissonSource {
	checkPositive("poisson rate", rate)
	checkPositive("service rate", mu)
	return &PoissonSource{Rate: rate, Mu: mu, rng: rng}
}

func (s *PoissonSource) String() string { return fmt.Sprintf("poisson(rate=%g)", s.Rate) }

// Install schedules the first arrival. Every draw a Poisson source takes
// is exponential, so its stream is batched from the very first draw.
func (s *PoissonSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerPoisson(s)
	s.st = st
	s.eb = dist.NewExpBatch(s.rng)
	e.scheduleEvAfter(s.eb.Exp()/s.Rate, evPoissonArrive, s.id, 0, 0, 0)
}

func (s *PoissonSource) arrive() {
	s.e.arriveInto(s.st, s.Mu, 0)
	s.e.scheduleEvAfter(s.eb.Exp()/s.Rate, evPoissonArrive, s.id, 0, 0, 0)
}

// OnOffSource simulates the 2-level HAP / ON-OFF model: calls arrive
// Poisson(Lambda), stay exp(Mu) and emit messages at MsgLambda while
// present, each served at MsgMu. Install's loop bound redraws Poisson(ν)
// before every initial call, so fewer than ν calls start on average
// (3.92 at ν = 5).
type OnOffSource struct {
	TL    *core.TwoLevel
	rng   *rand.Rand
	eb    *dist.ExpBatch
	e     *Engine
	id    int32
	st    int32
	calls table
}

// NewOnOffSource builds a 2-level source.
func NewOnOffSource(tl *core.TwoLevel, rng *rand.Rand) *OnOffSource {
	if err := tl.Validate(); err != nil {
		panic(err)
	}
	return &OnOffSource{TL: tl, rng: rng}
}

func (s *OnOffSource) String() string {
	return fmt.Sprintf("onoff(ν=%g γ=%g)", s.TL.Nu(), s.TL.MsgLambda)
}

// Install schedules the initial calls and the first call arrival.
func (s *OnOffSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerOnOff(s)
	s.st = st
	for k := 0; k < dist.PoissonSample(s.rng, s.TL.Nu()); k++ {
		s.addCall()
	}
	e.scheduleEvAfter(s.exp(s.TL.Lambda), evOnOffArrive, s.id, 0, 0, 0)
	// Post-install draws are all exponential; see HAPSource.Install.
	s.eb = dist.NewExpBatch(s.rng)
}

func (s *OnOffSource) exp(rate float64) float64 {
	if s.eb != nil {
		return s.eb.Exp() / rate
	}
	return s.rng.ExpFloat64() / rate
}

func (s *OnOffSource) callArrive() {
	s.addCall()
	s.e.scheduleEvAfter(s.exp(s.TL.Lambda), evOnOffArrive, s.id, 0, 0, 0)
}

func (s *OnOffSource) addCall() {
	slot, gen := s.calls.add()
	s.e.addUsers(s.st, 1)
	s.e.scheduleEvAfter(s.exp(s.TL.Mu), evOnOffDepart, s.id, slot, gen, 0)
	s.scheduleEmit(slot, gen)
}

func (s *OnOffSource) callDepart(slot, gen int32) {
	if !s.calls.ok(slot, gen) {
		return
	}
	s.calls.kill(slot)
	s.e.addUsers(s.st, -1)
}

func (s *OnOffSource) scheduleEmit(slot, gen int32) {
	s.e.scheduleEvAfter(s.exp(s.TL.MsgLambda), evOnOffEmit, s.id, slot, gen, 0)
}

func (s *OnOffSource) emit(slot, gen int32) {
	if !s.calls.ok(slot, gen) {
		return
	}
	s.e.arriveInto(s.st, s.TL.MsgMu, 0)
	s.scheduleEmit(slot, gen)
}
