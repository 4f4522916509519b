package net

import "hap/internal/obs"

// Network-layer observability. Counters aggregate across every run in the
// process (replications included — they are atomic); the queue-depth
// gauges show the most recent flush of whichever run last touched each
// node name. The driver batches deltas locally and flushes on a watermark
// so the per-packet hot path never touches an atomic.
var (
	obsForwarded = obs.NewCounter("hap_net_packets_forwarded_total",
		"Packets forwarded node-to-node inside simulated networks.")
	obsDelivered = obs.NewCounter("hap_net_packets_delivered_total",
		"Packets that completed their journey in simulated networks.")
	obsDropped = obs.NewCounter("hap_net_packets_dropped_total",
		"Packets lost in simulated networks (full buffers and hop-limit).")
	obsRuns = obs.NewCounter("hap_net_runs_total",
		"Completed network simulation runs.")
	obsNodes = obs.NewGauge("hap_net_nodes",
		"Node count of the most recently started network run.")
	obsQueueDepth = obs.NewGaugeVec("hap_net_node_queue_depth",
		"Per-node number in system at the last flush of the most recent run touching the node.", "node")
	obsHops = obs.NewCounterVec("hap_net_hops_total",
		"Delivered packets by hop count.", "hops")
)

// obsFlushMask sets the flush cadence: every 4096 packet events, matching
// the engine's context-poll period — frequent enough for a live scrape to
// see motion, rare enough to vanish from the profile.
const obsFlushMask = 1<<12 - 1

// netObsBatch accumulates metric deltas between flushes. One per driver,
// so parallel replications batch independently and only meet at the
// atomic counters.
type netObsBatch struct {
	forwarded, delivered, dropped int64
	ticks                         int
	depth                         []*obs.Gauge // child gauges cached per node at start
}

func (b *netObsBatch) start(d *driver) {
	obsNodes.Set(int64(len(d.topo.Nodes)))
	b.depth = make([]*obs.Gauge, len(d.topo.Nodes))
	for j := range b.depth {
		b.depth[j] = obsQueueDepth.With(d.topo.NodeName(j))
	}
}

func (b *netObsBatch) tick(d *driver) {
	b.ticks++
	if b.ticks&obsFlushMask == 0 {
		b.flush(d)
	}
}

func (b *netObsBatch) flush(d *driver) {
	if b.forwarded != 0 {
		obsForwarded.Add(b.forwarded)
		b.forwarded = 0
	}
	if b.delivered != 0 {
		obsDelivered.Add(b.delivered)
		b.delivered = 0
	}
	if b.dropped != 0 {
		obsDropped.Add(b.dropped)
		b.dropped = 0
	}
	for j, g := range b.depth {
		g.Set(int64(d.eng.StationQueueLen(int32(j))))
	}
}

func (b *netObsBatch) finish(d *driver) {
	b.flush(d)
	for h, n := range d.e2e.Hops {
		if n > 0 {
			obsHops.With(itoa(h)).Add(n)
		}
	}
	obsRuns.Inc()
}
