package sim

import (
	"fmt"
	"math/rand"

	"hap/internal/core"
	"hap/internal/dist"
)

// CSSource simulates HAP-CS (Section 2.2): the hierarchy spawns
// exchange-opening *requests*; when a request finishes service it triggers
// a *response* with probability PResp, and a served response triggers the
// next request of the exchange with probability PNext — the rlogin
// command/result ping-pong. Requests and responses share the single
// queue; classes are numbered 2k (request) and 2k+1 (response) for
// message type k in declaration order.
//
// Like HAPSource, users and applications live in slot tables, starting at
// their stationary populations, and every clock — including the
// triggered request/response continuations — is a typed event, so the
// exchange machinery allocates nothing per message.
type CSSource struct {
	Model *core.CSModel

	rng       *rand.Rand
	e         *Engine
	id        int32
	st        int32
	users     table
	apps      table
	muReq     []float64 // service rate per flattened message type
	muResp    []float64
	pResp     []float64
	pNext     []float64
	openRate  []float64 // spontaneous opening rate λ'' per flattened type
	typeStart []int     // first flattened type index per application type
}

// NewCSSource builds a client-server source.
func NewCSSource(m *core.CSModel, rng *rand.Rand) *CSSource {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	s := &CSSource{Model: m, rng: rng}
	for _, a := range m.Apps {
		s.typeStart = append(s.typeStart, len(s.muReq))
		for _, msg := range a.Messages {
			s.muReq = append(s.muReq, msg.MuReq)
			s.muResp = append(s.muResp, msg.MuResp)
			s.pResp = append(s.pResp, msg.PResp)
			s.pNext = append(s.pNext, msg.PNext)
			s.openRate = append(s.openRate, msg.Lambda)
		}
	}
	return s
}

// ClassCount returns the number of message classes (2 per message type).
func (s *CSSource) ClassCount() int { return 2 * len(s.muReq) }

func (s *CSSource) String() string { return fmt.Sprintf("hap-cs(%s)", s.Model.Name) }

// Install wires the station's completion hook and schedules the
// hierarchy.
func (s *CSSource) Install(e *Engine, st int32) {
	s.e = e
	s.id = e.registerCS(s)
	s.st = st
	e.stations[st].served = s.onServed
	for k := 0; k < dist.PoissonSample(s.rng, s.Model.Nu()); k++ {
		s.addUser()
	}
	e.scheduleEvAfter(s.rng.ExpFloat64()/s.Model.Lambda, evCSUserArrive, s.id, 0, 0, 0)
}

func (s *CSSource) userArrive() {
	s.addUser()
	s.e.scheduleEvAfter(s.rng.ExpFloat64()/s.Model.Lambda, evCSUserArrive, s.id, 0, 0, 0)
}

func (s *CSSource) addUser() {
	slot, gen := s.users.add(0)
	s.e.addUsers(s.st, 1)
	s.e.scheduleEvAfter(s.rng.ExpFloat64()/s.Model.Mu, evCSUserDepart, s.id, slot, gen, 0)
	for i := range s.Model.Apps {
		s.scheduleSpawn(slot, gen, int32(i))
	}
}

func (s *CSSource) userDepart(slot, gen int32) {
	if !s.users.ok(slot, gen) {
		return
	}
	s.users.kill(slot)
	s.e.addUsers(s.st, -1)
}

func (s *CSSource) scheduleSpawn(slot, gen, ti int32) {
	s.e.scheduleEvAfter(s.rng.ExpFloat64()/s.Model.Apps[ti].Lambda, evCSSpawn, s.id, slot, gen, ti)
}

func (s *CSSource) spawn(slot, gen, ti int32) {
	if !s.users.ok(slot, gen) {
		return
	}
	s.addApp(ti)
	s.scheduleSpawn(slot, gen, ti)
}

func (s *CSSource) addApp(ti int32) {
	slot, gen := s.apps.add(ti)
	s.e.addApps(s.st, 1)
	s.e.scheduleEvAfter(s.rng.ExpFloat64()/s.Model.Apps[ti].Mu, evCSAppDepart, s.id, slot, gen, 0)
	base := s.typeStart[ti]
	for j := range s.Model.Apps[ti].Messages {
		s.scheduleOpen(slot, gen, int32(base+j))
	}
}

func (s *CSSource) appDepart(slot, gen int32) {
	if !s.apps.ok(slot, gen) {
		return
	}
	s.apps.kill(slot)
	s.e.addApps(s.st, -1)
}

// scheduleOpen arms the exchange-opening clock for flattened message type k
// of a live application.
func (s *CSSource) scheduleOpen(slot, gen, k int32) {
	s.e.scheduleEvAfter(s.rng.ExpFloat64()/s.openRate[k], evCSOpen, s.id, slot, gen, k)
}

func (s *CSSource) open(slot, gen, k int32) {
	if !s.apps.ok(slot, gen) {
		return
	}
	s.sendRequest(k)
	s.scheduleOpen(slot, gen, k)
}

func (s *CSSource) sendRequest(k int32) {
	s.e.arriveInto(s.st, s.muReq[k], int(2*k))
}

func (s *CSSource) sendResponse(k int32) {
	s.e.arriveInto(s.st, s.muResp[k], int(2*k+1))
}

// onServed continues the exchange: served request → maybe response;
// served response → maybe next request. Triggered messages outlive the
// application that opened the exchange, mirroring how a remote server
// replies regardless.
func (s *CSSource) onServed(class int) {
	k := class / 2
	if k < 0 || k >= len(s.pResp) {
		return
	}
	if class%2 == 0 {
		// Request finished: trigger the response.
		if s.rng.Float64() < s.pResp[k] {
			s.after(evCSSendResp, int32(k))
		}
		return
	}
	// Response finished: maybe the client issues the next request.
	if s.rng.Float64() < s.pNext[k] {
		s.after(evCSSendReq, int32(k))
	}
}

// after schedules a triggered message at the current instant — the remote
// party reacts immediately — rather than delivering it inline, so the
// engine finishes the current completion (queue pop, stats) first.
func (s *CSSource) after(kind eventKind, k int32) {
	s.e.scheduleEv(s.e.now, kind, s.id, k, 0, 0)
}
