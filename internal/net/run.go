package net

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/haperr"
	"hap/internal/par"
	"hap/internal/sim"
	"hap/internal/stats"
)

// Config drives one network run.
type Config struct {
	// Horizon is the simulated time to cover.
	Horizon float64
	// Seed makes the run reproducible: all node and source streams derive
	// from it by index alone (see Run), so a (topology, ingresses, seed)
	// triple pins the sample path bit for bit.
	Seed int64
	// MaxEvents caps the engine event count (0 = unlimited).
	MaxEvents int64
	// MaxHops drops a packet that has been served at this many nodes
	// without reaching a destination (0 = 1024). It bounds destination-less
	// random walks on cyclic topologies; shortest-path traffic never gets
	// near it.
	MaxHops int
	// KeepPaths retains the visited-node paths of up to this many delivered
	// packets in Result.Paths (0 = none).
	KeepPaths int
	// Measure configures every node's per-station collector.
	Measure sim.MeasureConfig
	// Ctx, when non-nil, is polled by the event loop; cancellation stops
	// the run early, marked truncated with Err set.
	Ctx context.Context
}

func (cfg Config) validate() error {
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return haperr.Badf("net: horizon must be positive and finite (got %v)", cfg.Horizon)
	}
	if cfg.MaxEvents < 0 || cfg.MaxHops < 0 || cfg.KeepPaths < 0 {
		return haperr.Badf("net: max events, max hops and keep paths must be non-negative")
	}
	return nil
}

// Ingress binds one external traffic source to an entry node.
type Ingress struct {
	// Node is the entry node index.
	Node int
	// Dst is the destination node: >= 0 routes every packet along the
	// precomputed shortest-path table; < 0 lets packets walk link weights
	// until they reach a sink (a node with no out-links).
	Dst int
	// Make builds the source from its dedicated arrival stream, or reports
	// why its parameters are invalid. The source's own service rate is
	// ignored — each node's exponential server governs service at that
	// node.
	Make func(arrival *rand.Rand) (sim.Source, error)
}

// HAPIngress attaches a 3-level HAP source.
func HAPIngress(m *core.Model, node, dst int) Ingress {
	return Ingress{Node: node, Dst: dst, Make: func(r *rand.Rand) (sim.Source, error) {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return sim.NewHAPSource(m, r), nil
	}}
}

// PoissonIngress attaches a Poisson source with the given packet rate.
func PoissonIngress(rate float64, node, dst int) Ingress {
	return Ingress{Node: node, Dst: dst, Make: func(r *rand.Rand) (sim.Source, error) {
		if !(rate > 0) || math.IsInf(rate, 1) {
			return nil, haperr.Badf("poisson rate must be positive and finite (got %v)", rate)
		}
		return sim.NewPoissonSource(rate, 1, r), nil
	}}
}

// OnOffIngress attaches the paper's two-level ON-OFF reduction.
func OnOffIngress(tl *core.TwoLevel, node, dst int) Ingress {
	return Ingress{Node: node, Dst: dst, Make: func(r *rand.Rand) (sim.Source, error) {
		if err := tl.Validate(); err != nil {
			return nil, err
		}
		return sim.NewOnOffSource(tl, r), nil
	}}
}

// NodeCounts is one node's packet accounting.
type NodeCounts struct {
	Name string
	// In counts packets admitted to the node's queue (external + forwarded).
	In int64
	// Forwarded counts packets sent onward after service here.
	Forwarded int64
	// Delivered counts packets that ended their journey here.
	Delivered int64
	// DroppedFull counts packets refused because the buffer was full.
	DroppedFull int64
}

// EndToEnd accumulates whole-journey statistics across all delivered
// packets of a run (or, after Merge, of many runs).
type EndToEnd struct {
	// Sojourn is the network time of delivered packets: entry to final
	// service completion, all queueing, service and link delays included.
	Sojourn stats.Welford
	// PerHop[h] collects the node sojourn (wait + service) of every
	// packet's (h+1)-th hop — the per-hop delay breakdown.
	PerHop []stats.Welford
	// Hops[h] counts delivered packets served at exactly h nodes (the
	// entry node included, so a direct single-node delivery is h = 1).
	Hops []int64
	// Offered counts external packets presented to ingress nodes.
	Offered int64
	// Delivered counts packets that reached a destination or sink.
	Delivered int64
	// DroppedFull counts packets lost to full buffers (any node).
	DroppedFull int64
	// DroppedHops counts packets dropped at the MaxHops safety limit.
	DroppedHops int64
}

// Merge folds another accumulator into this one.
func (a *EndToEnd) Merge(b *EndToEnd) {
	a.Sojourn.Merge(&b.Sojourn)
	for len(a.PerHop) < len(b.PerHop) {
		a.PerHop = append(a.PerHop, stats.Welford{})
	}
	for h := range b.PerHop {
		a.PerHop[h].Merge(&b.PerHop[h])
	}
	for len(a.Hops) < len(b.Hops) {
		a.Hops = append(a.Hops, 0)
	}
	for h, n := range b.Hops {
		a.Hops[h] += n
	}
	a.Offered += b.Offered
	a.Delivered += b.Delivered
	a.DroppedFull += b.DroppedFull
	a.DroppedHops += b.DroppedHops
}

// Result is a completed network run (or, from RunReplicated, the merge of
// several).
type Result struct {
	Topology string
	// PerNode[j] is node j's station collector: waiting-time and
	// queue-length statistics local to that node.
	PerNode []*sim.Measurements
	// Node[j] is node j's packet accounting.
	Node []NodeCounts
	// E2E is the whole-journey accumulator.
	E2E EndToEnd
	// InFlight counts packets still queued, in service or on a link when
	// the run stopped.
	InFlight int64
	// Paths holds the visited-node paths of the first Config.KeepPaths
	// delivered packets.
	Paths [][]int32
	// Events is the engine event count.
	Events int64
	// Truncated reports an event-budget or cancellation stop before the
	// horizon.
	Truncated bool
	Err       error
	Elapsed   time.Duration

	// Reps holds the per-replication results when this result came from
	// RunReplicated (nil for a single run).
	Reps []*Result
	// HalfWidth is the 95% confidence half-width of the mean end-to-end
	// sojourn across replications (RunReplicated with >= 2 reps).
	HalfWidth float64
}

// errResult reports an invalid input without running anything.
func errResult(t *Topology, err error) *Result {
	return &Result{Topology: t.Name, Err: err}
}

const defaultMaxHops = 1024

// packet is one in-flight network packet. The driver owns a free-listed
// table of these; the engine carries only the int32 handle.
type packet struct {
	entry float64 // network entry time
	dst   int32   // destination node, -1 for sink-routed
	class int32   // message class from the source, preserved end to end
	hops  int32   // nodes served so far
	path  []int32 // visited nodes, in order
}

// driver wires a compiled topology into one engine, node j on station j,
// and owns all mutable per-run state. Everything is local to a single Run
// call; nothing is shared across replications except the immutable
// topology.
type driver struct {
	topo    *Topology
	eng     *sim.Engine
	cfg     Config
	routeRn []*rand.Rand // node j's routing stream
	counts  []NodeCounts
	e2e     EndToEnd
	paths   [][]int32
	maxHops int32

	pkts []packet
	free []int32

	obs netObsBatch
}

func (d *driver) alloc(entry float64, node, dst, class int32) int32 {
	var h int32
	if n := len(d.free); n > 0 {
		h = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		d.pkts = append(d.pkts, packet{})
		h = int32(len(d.pkts) - 1)
	}
	p := &d.pkts[h]
	p.entry, p.dst, p.class, p.hops = entry, dst, class, 0
	p.path = append(p.path[:0], node)
	return h
}

func (d *driver) release(h int32) { d.free = append(d.free, h) }

// admit reports whether node j can accept one more packet right now.
func (d *driver) admit(j int32) bool {
	b := d.topo.Nodes[j].Buffer
	return b == 0 || d.eng.StationQueueLen(j) < b
}

// ingressArrive is the per-source entry point: source class is preserved,
// and the entry node's service rate serves the packet.
func (d *driver) ingressArrive(node int32, dst int32, class int) {
	d.e2e.Offered++
	d.obs.tick(d)
	if !d.admit(node) {
		d.counts[node].DroppedFull++
		d.e2e.DroppedFull++
		d.obs.dropped++
		return
	}
	pkt := d.alloc(d.eng.Now(), node, dst, int32(class))
	d.counts[node].In++
	d.eng.ArrivePacketAt(node, d.topo.Nodes[node].Mu, class, pkt)
}

// packetDone fires when a packet finishes service at a node: record the
// hop, then deliver, forward or drop.
func (d *driver) packetDone(node, pkt int32, class int, sojourn float64) {
	p := &d.pkts[pkt]
	h := p.hops
	p.hops++
	for int(h) >= len(d.e2e.PerHop) {
		d.e2e.PerHop = append(d.e2e.PerHop, stats.Welford{})
	}
	d.e2e.PerHop[h].Add(sojourn)
	d.obs.tick(d)

	t := d.topo
	if node == p.dst || len(t.out[node]) == 0 {
		d.deliverFinal(node, p, pkt)
		return
	}
	if p.hops >= d.maxHops {
		d.e2e.DroppedHops++
		d.obs.dropped++
		d.release(pkt)
		return
	}
	var li int32
	switch {
	case p.dst >= 0:
		li = t.nextHop[node][p.dst]
	case len(t.out[node]) == 1:
		li = t.out[node][0]
	default:
		li = t.out[node][t.choose[node].Sample(d.routeRn[node])]
	}
	l := &t.Links[li]
	d.counts[node].Forwarded++
	d.obs.forwarded++
	d.eng.ScheduleDeliver(d.eng.Now()+l.Delay, int32(l.To), pkt)
}

func (d *driver) deliverFinal(node int32, p *packet, pkt int32) {
	d.e2e.Sojourn.Add(d.eng.Now() - p.entry)
	hops := int(p.hops)
	for hops >= len(d.e2e.Hops) {
		d.e2e.Hops = append(d.e2e.Hops, 0)
	}
	d.e2e.Hops[hops]++
	d.e2e.Delivered++
	d.counts[node].Delivered++
	d.obs.delivered++
	if len(d.paths) < d.cfg.KeepPaths {
		d.paths = append(d.paths, append([]int32(nil), p.path...))
	}
	d.release(pkt)
}

// deliver fires when a forwarded packet reaches its next node after the
// link delay; the buffer is re-checked at arrival time, not send time.
func (d *driver) deliver(node, pkt int32) {
	p := &d.pkts[pkt]
	d.obs.tick(d)
	if !d.admit(node) {
		d.counts[node].DroppedFull++
		d.e2e.DroppedFull++
		d.obs.dropped++
		d.release(pkt)
		return
	}
	p.path = append(p.path, node)
	d.counts[node].In++
	d.eng.ArrivePacketAt(node, d.topo.Nodes[node].Mu, int(p.class), pkt)
}

// Run simulates the ingress traffic over the topology.
//
// Stream derivation is by index only, mirroring the sharded engine's
// determinism contract: source i draws arrivals from
// dist.SubSeed(cfg.Seed, i); node j draws service and routing from
// dist.SubSeed(cfg.Seed, -1-j) (negative indices so node and source
// streams can never collide). Nothing depends on scheduling or worker
// counts, so the same (topology, ingresses, seed) reproduces every
// statistic bit for bit — RunReplicated relies on this.
func Run(t *Topology, ings []Ingress, cfg Config) *Result {
	start := time.Now()
	if err := t.Validate(); err != nil {
		return errResult(t, err)
	}
	if err := cfg.validate(); err != nil {
		return errResult(t, err)
	}
	if len(ings) == 0 {
		return errResult(t, haperr.Badf("net: at least one ingress is required"))
	}
	n := len(t.Nodes)
	srcs := make([]sim.Source, len(ings))
	for i, ing := range ings {
		if ing.Node < 0 || ing.Node >= n {
			return errResult(t, haperr.Badf("net: ingress %d node %d out of range [0,%d)", i, ing.Node, n))
		}
		if ing.Dst >= n {
			return errResult(t, haperr.Badf("net: ingress %d destination %d out of range", i, ing.Dst))
		}
		if ing.Dst >= 0 && !t.Reaches(ing.Node, ing.Dst) {
			return errResult(t, haperr.Badf("net: ingress %d cannot reach destination %d from node %d", i, ing.Dst, ing.Node))
		}
		if ing.Make == nil {
			return errResult(t, haperr.Badf("net: ingress %d has no source constructor", i))
		}
		src, err := ing.Make(dist.NewStreams(dist.SubSeed(cfg.Seed, i)).Next())
		if err != nil {
			return errResult(t, fmt.Errorf("net: ingress %d: %w", i, err))
		}
		srcs[i] = src
	}

	d := &driver{
		topo:    t,
		cfg:     cfg,
		routeRn: make([]*rand.Rand, n),
		counts:  make([]NodeCounts, n),
		maxHops: int32(cfg.MaxHops),
	}
	if d.maxHops == 0 {
		d.maxHops = defaultMaxHops
	}

	eng := sim.NewEngine(cfg.Horizon)
	d.eng = eng
	if cfg.MaxEvents > 0 {
		eng.SetMaxEvents(cfg.MaxEvents)
	}
	if cfg.Ctx != nil {
		eng.SetContext(cfg.Ctx)
	}

	perNode := make([]*sim.Measurements, n)
	for j := 0; j < n; j++ {
		streams := dist.NewStreams(dist.SubSeed(cfg.Seed, -1-j))
		perNode[j] = sim.NewMeasurements(cfg.Measure)
		eng.AddStation(streams.Next(), perNode[j]) // station j
		d.routeRn[j] = streams.Next()
		d.counts[j].Name = t.NodeName(j)
	}
	for i, ing := range ings {
		alias := eng.AddStation(nil, nil)
		node, dst := int32(ing.Node), int32(ing.Dst)
		if ing.Dst < 0 {
			dst = -1
		}
		eng.SetIngressHook(alias, func(class int) { d.ingressArrive(node, dst, class) })
		srcs[i].Install(eng, alias)
	}
	eng.SetPacketDoneHook(d.packetDone)
	eng.SetDeliverHook(d.deliver)

	d.obs.start(d)
	eng.Run()
	d.obs.finish(d)

	return &Result{
		Topology:  t.Name,
		PerNode:   perNode,
		Node:      d.counts,
		E2E:       d.e2e,
		InFlight:  int64(len(d.pkts) - len(d.free)),
		Paths:     d.paths,
		Events:    eng.Processed(),
		Truncated: eng.Truncated(),
		Err:       eng.Err(),
		Elapsed:   time.Since(start),
	}
}

// RunReplicated executes reps independent replications across workers
// (<= 0 selects GOMAXPROCS) and merges them in replication order.
// Replication r runs with seed dist.SubSeed(cfg.Seed, r), so the merged
// result is a pure function of (topology, ingresses, cfg, reps) — worker
// count changes nothing, bit for bit.
func RunReplicated(t *Topology, ings []Ingress, cfg Config, reps, workers int) *Result {
	start := time.Now()
	if reps <= 0 {
		return errResult(t, haperr.Badf("net: reps must be positive (got %d)", reps))
	}
	runs := par.Replicate(cfg.Ctx, reps, cfg.Seed, workers, func(_ int, seed int64) *Result {
		c := cfg
		c.Seed = seed
		return Run(t, ings, c)
	})
	agg := &Result{Topology: t.Name, Reps: runs}
	var means stats.Welford // per-replication mean sojourns
	for _, r := range runs {
		if r == nil { // cancelled before this replication started
			agg.Truncated = true
			continue
		}
		if r.Err != nil && agg.Err == nil {
			agg.Err = r.Err
		}
		if agg.PerNode == nil {
			agg.PerNode = make([]*sim.Measurements, len(r.PerNode))
			agg.Node = make([]NodeCounts, len(r.Node))
			for j := range agg.PerNode {
				agg.PerNode[j] = sim.NewMeasurements(cfg.Measure)
			}
		}
		for j := range r.PerNode {
			agg.PerNode[j].Merge(r.PerNode[j])
			agg.Node[j].Name = r.Node[j].Name
			agg.Node[j].In += r.Node[j].In
			agg.Node[j].Forwarded += r.Node[j].Forwarded
			agg.Node[j].Delivered += r.Node[j].Delivered
			agg.Node[j].DroppedFull += r.Node[j].DroppedFull
		}
		agg.E2E.Merge(&r.E2E)
		agg.InFlight += r.InFlight
		agg.Events += r.Events
		agg.Truncated = agg.Truncated || r.Truncated
		agg.Paths = append(agg.Paths, r.Paths...)
		means.Add(r.E2E.Sojourn.Mean())
	}
	agg.HalfWidth = means.HalfWidth95()
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		agg.Truncated = true
		if agg.Err == nil {
			agg.Err = cfg.Ctx.Err()
		}
	}
	agg.Elapsed = time.Since(start)
	return agg
}
