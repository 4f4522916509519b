package sim

import (
	"fmt"
	"math/rand"

	"hap/internal/core"
)

// CSSource simulates HAP-CS (Section 2.2) as a HAP plus an exchange
// continuation. A HAPSource on the model's request hierarchy
// (core.CSModel.Requests) opens the exchanges; when a request finishes
// service it triggers a *response* with probability PResp, and a served
// response triggers the next request of the exchange with probability
// PNext — the rlogin command/result ping-pong. Requests and responses
// share the single queue; classes are numbered 2k (request) and 2k+1
// (response) for message type k in declaration order.
//
// The continuation's uniforms come from the HAP source's stream, between
// the refills of its batched exponentials: each draw is still used once,
// so the process law is that of unbatched draws.
type CSSource struct {
	Model *core.CSModel

	hap  *HAPSource
	id   int32
	msgs []core.CSMessageType // message types flattened, in leaf order
}

// NewCSSource builds a client-server source.
func NewCSSource(m *core.CSModel, rng *rand.Rand) *CSSource {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	s := &CSSource{Model: m, hap: NewHAPSource(m.Requests(), rng)}
	for k := range s.hap.class {
		s.hap.class[k] = 2 * k
	}
	for _, a := range m.Apps {
		s.msgs = append(s.msgs, a.Messages...)
	}
	return s
}

// ClassCount returns the number of message classes (2 per message type).
func (s *CSSource) ClassCount() int { return 2 * len(s.msgs) }

func (s *CSSource) String() string { return fmt.Sprintf("hap-cs(%s)", s.Model.Name) }

// Install registers the continuation, wires the station's completion
// hook and installs the request hierarchy.
func (s *CSSource) Install(e *Engine, st int32) {
	s.id = e.registerCS(s)
	e.stations[st].served = s.onServed
	s.hap.Install(e, st)
}

func (s *CSSource) sendRequest(k int32) {
	s.hap.e.arriveInto(s.hap.st, s.hap.mu[k], int(2*k))
}

func (s *CSSource) sendResponse(k int32) {
	s.hap.e.arriveInto(s.hap.st, s.msgs[k].MuResp, int(2*k+1))
}

// onServed continues the exchange: served request → maybe response;
// served response → maybe next request. Triggered messages outlive the
// application that opened the exchange, mirroring how a remote server
// replies regardless.
func (s *CSSource) onServed(class int) {
	k := class / 2
	if k < 0 || k >= len(s.msgs) {
		return
	}
	if class%2 == 0 {
		// Request finished: trigger the response.
		if s.hap.rng.Float64() < s.msgs[k].PResp {
			s.after(evCSSendResp, int32(k))
		}
		return
	}
	// Response finished: maybe the client issues the next request.
	if s.hap.rng.Float64() < s.msgs[k].PNext {
		s.after(evCSSendReq, int32(k))
	}
}

// after schedules a triggered message at the current instant — the remote
// party reacts immediately — rather than delivering it inline, so the
// engine finishes the current completion (queue pop, stats) first.
func (s *CSSource) after(kind eventKind, k int32) {
	s.hap.e.scheduleEv(s.hap.e.now, kind, s.id, k, 0, 0)
}
