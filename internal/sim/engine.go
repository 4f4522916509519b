// Package sim is the discrete-event simulator for HAP and its baseline
// traffic models feeding single-server FIFO queues — the experimental
// apparatus behind the paper's Figures 11–18. Sources (HAP, HAP-CS,
// Poisson, ON-OFF, MMPP) generate message arrivals; exponential servers
// drain them; measurement hooks record delays, queue-length and
// population traces, busy periods ("mountains") and running means.
//
// The engine is deterministic for a fixed seed: ties in event time are
// broken by schedule order.
//
// The hot loop is allocation-free: events are typed values (kind + source
// slot + integer payload) stored inline in the scheduler and dispatched
// through a switch on concrete source types, so processing an event costs
// no closure allocation, no interface boxing and no GC pressure. Sources
// track their users/applications/calls in slot tables with generation
// counters (see table) instead of per-entity heap objects, which is what
// lets a pending event name an entity without keeping a pointer alive.
//
// An engine hosts stations — (queue, exponential server, measurements)
// triples, each created by AddStation. Run adds one for its single
// source; the sharded aggregate runner (see sharded.go) gives each source
// its own station on a shared engine, so hundreds of independent
// source/queue systems cost one scheduler and one event loop rather than
// one engine each. A source binds to its station explicitly, through
// Source.Install.
package sim

import (
	"context"
	"fmt"
	"math/rand"

	"hap/internal/dist"
)

// eventKind discriminates the typed events the dispatch switch understands.
// Source-specific kinds carry the source's slot in event.src and entity
// slot/generation/type indices in the a, b, c payload.
type eventKind uint8

const (
	evServiceDone eventKind = iota // src = station index
	// HAPSource
	evHAPUserArrive // next spontaneous user arrival
	evHAPUserDepart // a = user slot, b = generation
	evHAPSpawn      // a = user slot, b = generation, c = application type
	evHAPAppDepart  // a = app slot,  b = generation
	evHAPEmit       // a = app slot,  b = generation, c = leaf
	// PoissonSource
	evPoissonArrive
	// OnOffSource
	evOnOffArrive
	evOnOffDepart // a = call slot, b = generation
	evOnOffEmit   // a = call slot, b = generation
	// CBRSource
	evCBREmit
	// MMPPSource
	evMMPPSwitch // a = modulator generation
	evMMPPArrive // a = modulator generation
	// CSSource (its request hierarchy runs on the HAPSource kinds)
	evCSSendReq  // a = flattened message type
	evCSSendResp // a = flattened message type
	// Network layer (internal/net)
	evNetDeliver // src = target station index, a = packet handle
)

// event is one scheduled occurrence, stored by value in the scheduler and
// fully described by (kind, src, a, b, c). It holds no pointers, so the
// scheduler's slices are never scanned by the GC and a popped slot needs
// no clearing.
type event struct {
	t    float64
	seq  uint64
	kind eventKind
	src  int32
	a    int32
	b    int32
	c    int32
}

// table tracks a source's live entities (users, applications, calls) by
// slot with generation counters. Pending events name an entity as
// (slot, generation); ok reports whether that incarnation is still alive,
// which implements the lazy cancellation the closure-based engine got from
// captured *simUser pointers — without allocating per entity. Slots are
// recycled through a free list, and the generation bumps on reuse so stale
// events can never resurrect a successor.
type table struct {
	gen  []int32
	live []bool
	free []int32
}

func (t *table) add() (slot, gen int32) {
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.gen[slot]++
		t.live[slot] = true
		return slot, t.gen[slot]
	}
	slot = int32(len(t.gen))
	t.gen = append(t.gen, 0)
	t.live = append(t.live, true)
	return slot, 0
}

func (t *table) kill(slot int32) {
	t.live[slot] = false
	t.free = append(t.free, slot)
}

func (t *table) ok(slot, gen int32) bool {
	return t.live[slot] && t.gen[slot] == gen
}

// message is one queued message, served at rate mu. pkt, when >= 0, is an
// opaque packet handle owned by a network driver (see SetPacketDoneHook);
// plain single-queue traffic carries -1. It holds no pointers, so the
// queue is never scanned by the GC and a served slot needs no clearing.
type message struct {
	arrival float64
	mu      float64
	class   int // message class index for per-class stats
	pkt     int32
}

// station is one (FIFO queue, exponential server, measurements) triple.
// A station's sample path depends only on its own arrival stream and its
// own service stream, never on which other stations share the engine —
// the independence that makes sharded runs bit-identical at any shard
// count.
type station struct {
	// FIFO queue as a sliding window: queue[qhead] is in service when
	// busy. The head index avoids O(n) shifts during long busy periods
	// (mountains reach O(10⁴) messages).
	queue []message
	qhead int
	busy  bool
	// batch reads the station's service stream: each service takes the
	// next unit exponential divided by the message's rate.
	batch      *dist.ExpBatch
	meas       *Measurements
	arrivals   int64
	departures int64
	// users/apps are the populations of the sources bound to this station;
	// keeping them per station (not engine-global) is what makes a
	// station's measurements independent of which other stations share the
	// engine — the sharding determinism contract.
	users int
	apps  int
	// served, when set, is invoked after each service completion with the
	// message class; a HAP-CS source installed here sets it to trigger
	// responses.
	served func(class int)
	// ingress, when set, intercepts every message a source delivers to
	// this station before it touches the queue: the network layer binds
	// one per external source to tag messages with packet state and
	// re-inject them at the source's ingress node (see SetIngressHook).
	// The station then acts as a pure tagging alias — its own queue and
	// server are never used.
	ingress func(class int)
}

func (st *station) qlen() int { return len(st.queue) - st.qhead }

// Engine is the simulation core: clock, future event list, and one or
// more single-server queues (stations).
type Engine struct {
	now    float64
	seq    uint64
	events sched

	stations []station

	horizon float64

	// Installed sources by concrete type; event.src indexes into the
	// matching slice, so dispatch is a direct switch with no interface
	// method call on the hot path.
	haps     []*HAPSource
	poissons []*PoissonSource
	onoffs   []*OnOffSource
	cbrs     []*CBRSource
	mmpps    []*MMPPSource
	css      []*CSSource

	arrivals   int64
	departures int64
	maxEvents  int64
	processed  int64
	truncated  bool

	// Watermarks for the batched metrics flush (see flushObs): the deltas
	// since the last flush go to the package counters, so the per-event
	// loop never touches an atomic.
	obsFlushed    int64
	obsArrFlushed int64
	obsDepFlushed int64

	// ctx, when set, is polled every ctxPollMask+1 events; a cancelled
	// context stops the run early with err recording the cause.
	ctx context.Context
	err error

	// Network-layer hooks (see internal/net): deliver handles evNetDeliver
	// events — a packet reaching a station after a link traversal — and
	// packetDone fires after a packet's service completes at a station.
	// Both are engine-wide because one network driver owns every packet
	// on the engine.
	deliver    func(station, pkt int32)
	packetDone func(station, pkt int32, class int, sojourn float64)
}

// ctxPollMask sets the cancellation poll period: the context is checked
// every 4096 events, cheap enough to be invisible in the allocation-free
// hot loop yet prompt at the 10⁶–10⁸ events/s the engine sustains.
const ctxPollMask = 1<<12 - 1

// NewEngine creates an engine, with no stations, running to the given
// simulated horizon.
func NewEngine(horizon float64) *Engine {
	if horizon <= 0 {
		panic("sim: horizon must be positive")
	}
	return &Engine{
		events:    newSched(),
		horizon:   horizon,
		maxEvents: 1 << 62,
	}
}

// AddStation creates an independent (queue, exponential server,
// measurements) triple whose service times come from rng alone, and
// returns its index for Source.Install. The stream is read in blocks (see
// dist.ExpBatch), which preserves its draw order. A nil meas collects
// with the default configuration.
func (e *Engine) AddStation(rng *rand.Rand, meas *Measurements) int32 {
	if meas == nil {
		meas = NewMeasurements(MeasureConfig{})
	}
	e.stations = append(e.stations, station{batch: dist.NewExpBatch(rng), meas: meas})
	return int32(len(e.stations) - 1)
}

// Now returns the simulation clock.
func (e *Engine) Now() float64 { return e.now }

// scheduleEv enqueues an event at absolute time t (>= Now). Events beyond
// the horizon are still queued; Run stops at the horizon regardless. A NaN
// time panics like a past one: it would otherwise pop, set the clock to
// NaN (never past the horizon) and spin until the event budget, and it
// breaks the scheduler's monotone precondition.
func (e *Engine) scheduleEv(t float64, kind eventKind, src, a, b, c int32) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, kind: kind, src: src, a: a, b: b, c: c})
}

// scheduleEvAfter enqueues a typed event after a delay.
func (e *Engine) scheduleEvAfter(d float64, kind eventKind, src, a, b, c int32) {
	e.scheduleEv(e.now+d, kind, src, a, b, c)
}

// dispatch routes one event to its handler. The switch covers every kind
// with a direct concrete-type method call; only network deliveries go
// through the driver's hook.
func (e *Engine) dispatch(ev *event) {
	switch ev.kind {
	case evServiceDone:
		e.completeService(ev.src)
	case evHAPEmit:
		e.haps[ev.src].emit(ev.a, ev.b, ev.c)
	case evHAPSpawn:
		e.haps[ev.src].spawn(ev.a, ev.b, ev.c)
	case evHAPAppDepart:
		e.haps[ev.src].appDepart(ev.a, ev.b)
	case evHAPUserDepart:
		e.haps[ev.src].userDepart(ev.a, ev.b)
	case evHAPUserArrive:
		e.haps[ev.src].userArrive()
	case evPoissonArrive:
		e.poissons[ev.src].arrive()
	case evOnOffArrive:
		e.onoffs[ev.src].callArrive()
	case evOnOffDepart:
		e.onoffs[ev.src].callDepart(ev.a, ev.b)
	case evOnOffEmit:
		e.onoffs[ev.src].emit(ev.a, ev.b)
	case evCBREmit:
		e.cbrs[ev.src].emit()
	case evMMPPSwitch:
		e.mmpps[ev.src].switchState(ev.a)
	case evMMPPArrive:
		e.mmpps[ev.src].arrive(ev.a)
	case evCSSendReq:
		e.css[ev.src].sendRequest(ev.a)
	case evCSSendResp:
		e.css[ev.src].sendResponse(ev.a)
	case evNetDeliver:
		e.deliver(ev.src, ev.a)
	default:
		panic(fmt.Sprintf("sim: unknown event kind %d", ev.kind))
	}
}

// Source registration: Install calls one of these to obtain the slot that
// the source's events carry in event.src.

func (e *Engine) registerHAP(s *HAPSource) int32 {
	e.haps = append(e.haps, s)
	return int32(len(e.haps) - 1)
}

func (e *Engine) registerPoisson(s *PoissonSource) int32 {
	e.poissons = append(e.poissons, s)
	return int32(len(e.poissons) - 1)
}

func (e *Engine) registerOnOff(s *OnOffSource) int32 {
	e.onoffs = append(e.onoffs, s)
	return int32(len(e.onoffs) - 1)
}

func (e *Engine) registerCBR(s *CBRSource) int32 {
	e.cbrs = append(e.cbrs, s)
	return int32(len(e.cbrs) - 1)
}

func (e *Engine) registerMMPP(s *MMPPSource) int32 {
	e.mmpps = append(e.mmpps, s)
	return int32(len(e.mmpps) - 1)
}

func (e *Engine) registerCS(s *CSSource) int32 {
	e.css = append(e.css, s)
	return int32(len(e.css) - 1)
}

// Run processes events until the horizon, event budget, or context is
// exhausted. When the budget or a cancellation cuts the run short the clock
// stays at the last processed event and Truncated reports true (Err carries
// the context error for cancellations); measurements always close at
// min(now, horizon), never at a horizon the run did not reach.
func (e *Engine) Run() {
	for i := range e.stations {
		st := &e.stations[i]
		st.meas.start(e.now, st.qlen(), st.users, st.apps)
	}
	for e.events.len() > 0 {
		if e.processed >= e.maxEvents {
			e.truncated = true
			break
		}
		if e.processed&ctxPollMask == 0 {
			e.flushObs()
			if e.ctx != nil {
				if err := e.ctx.Err(); err != nil {
					e.err = err
					e.truncated = true
					break
				}
			}
		}
		ev := e.events.pop()
		if ev.t > e.horizon {
			e.now = e.horizon
			break
		}
		e.now = ev.t
		e.dispatch(&ev)
		e.processed++
	}
	end := e.now
	if end > e.horizon {
		end = e.horizon
	}
	for i := range e.stations {
		st := &e.stations[i]
		st.meas.finish(end, st.qlen())
		st.meas.Truncated = e.truncated
	}
	e.flushObs()
	obsRuns.Inc()
	if e.truncated {
		obsTruncations.Inc()
	}
}

// SetMaxEvents bounds the number of processed events (safety valve for
// open-ended sources).
func (e *Engine) SetMaxEvents(n int64) { e.maxEvents = n }

// SetContext arms cooperative cancellation: Run polls ctx every few
// thousand events and stops early — marking the run truncated and
// recording the context error — once it is done. Nil disarms.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// Err returns the context error that stopped the run early, or nil.
func (e *Engine) Err() error { return e.err }

// Processed returns the number of events fired.
func (e *Engine) Processed() int64 { return e.processed }

// Truncated reports whether Run stopped on the event budget before
// reaching the horizon.
func (e *Engine) Truncated() bool { return e.truncated }

// Arrivals returns the number of messages that entered a queue (all
// stations).
func (e *Engine) Arrivals() int64 { return e.arrivals }

// Departures returns the number of completed services (all stations).
func (e *Engine) Departures() int64 { return e.departures }

// totalQueueLen sums the number in system across stations (obs gauge).
func (e *Engine) totalQueueLen() int {
	n := 0
	for i := range e.stations {
		n += e.stations[i].qlen()
	}
	return n
}

// arriveInto delivers a message to the given station's queue. A station
// with an ingress hook never queues: the hook owns the message and decides
// where (and whether) it enters the network.
func (e *Engine) arriveInto(sti int32, mu float64, class int) {
	st := &e.stations[sti]
	if st.ingress != nil {
		st.ingress(class)
		return
	}
	e.enqueue(sti, mu, class, -1)
}

// ArrivePacketAt delivers a network packet, to be served at rate mu, to the
// given station's queue at the current clock, carrying the driver's packet
// handle through service so the packet-done hook can route it onward.
func (e *Engine) ArrivePacketAt(sti int32, mu float64, class int, pkt int32) {
	e.enqueue(sti, mu, class, pkt)
}

func (e *Engine) enqueue(sti int32, mu float64, class int, pkt int32) {
	e.arrivals++
	st := &e.stations[sti]
	st.arrivals++
	st.queue = append(st.queue, message{arrival: e.now, mu: mu, class: class, pkt: pkt})
	st.meas.onArrival(e.now, st.qlen(), class)
	if !st.busy {
		e.startService(sti)
	}
}

func (e *Engine) startService(sti int32) {
	st := &e.stations[sti]
	st.busy = true
	e.scheduleEv(e.now+st.batch.Exp()/st.queue[st.qhead].mu, evServiceDone, sti, 0, 0, 0)
}

func (e *Engine) completeService(sti int32) {
	st := &e.stations[sti]
	m := st.queue[st.qhead]
	st.qhead++
	// Compact once the dead prefix dominates.
	if st.qhead > 64 && st.qhead*2 > len(st.queue) {
		n := copy(st.queue, st.queue[st.qhead:])
		st.queue = st.queue[:n]
		st.qhead = 0
	}
	e.departures++
	st.departures++
	st.meas.onDeparture(e.now, e.now-m.arrival, st.qlen(), m.class)
	if st.served != nil {
		st.served(m.class)
	}
	if m.pkt >= 0 && e.packetDone != nil {
		e.packetDone(sti, m.pkt, m.class, e.now-m.arrival)
	}
	if st.qlen() > 0 {
		e.startService(sti)
	} else {
		st.busy = false
	}
}

// SetIngressHook turns the given station into a tagging alias: every
// message a source bound to it emits is handed to f, with its class,
// instead of queueing.
// The network driver binds one alias station per external source, so the
// hook's closure knows which source (and hence which ingress node and
// destination) a message belongs to — information arriveInto alone cannot
// carry.
func (e *Engine) SetIngressHook(sti int32, f func(class int)) {
	e.stations[sti].ingress = f
}

// SetPacketDoneHook registers the engine-wide hook fired when a message
// carrying a packet handle (ArrivePacketAt) completes service: the hook
// receives the station, the handle, the message class, and the sojourn
// time spent at that station, and decides the packet's next hop.
func (e *Engine) SetPacketDoneHook(f func(station, pkt int32, class int, sojourn float64)) {
	e.packetDone = f
}

// SetDeliverHook registers the engine-wide handler for scheduled packet
// deliveries (see ScheduleDeliver).
func (e *Engine) SetDeliverHook(f func(station, pkt int32)) {
	e.deliver = f
}

// ScheduleDeliver enqueues a typed packet-delivery event: at absolute time
// t the deliver hook fires with (station, pkt). The station index is folded
// into the event key, so a hop costs one inline event — no closure, no
// allocation.
func (e *Engine) ScheduleDeliver(t float64, station, pkt int32) {
	e.scheduleEv(t, evNetDeliver, station, pkt, 0, 0)
}

// StationQueueLen returns the current number in system at the given
// station (the network layer's finite-buffer admission check).
func (e *Engine) StationQueueLen(sti int32) int { return e.stations[sti].qlen() }

// addUsers adjusts the given station's user population (called by the
// sources installed on it).
func (e *Engine) addUsers(sti int32, d int) {
	st := &e.stations[sti]
	st.users += d
	st.meas.onPopulation(e.now, st.users, st.apps)
}

// addApps adjusts the given station's application population.
func (e *Engine) addApps(sti int32, d int) {
	st := &e.stations[sti]
	st.apps += d
	st.meas.onPopulation(e.now, st.users, st.apps)
}

// Source generates traffic into an engine.
type Source interface {
	// Install registers the source with the engine, binds it to station
	// st — every message it emits joins that station's queue, and that
	// station's measurements observe it — and schedules its initial
	// events.
	Install(e *Engine, st int32)
	// String describes the source for reports.
	String() string
}
