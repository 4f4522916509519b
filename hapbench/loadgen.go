package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hap/internal/core"
	"hap/internal/netgen"
)

// lbSchedule is one stream's P0 arrival schedule, time-compressed so that
// it offers a stated packet rate.
type lbSchedule struct {
	due      []time.Duration // packet j's send time, from the start of sending
	compress float64         // model seconds per wall second
}

// makeSchedule generates a P0 schedule from seed and compresses it so that
// its first n packets span exactly n/rate wall seconds: the stated rate
// holds on average over the part of the schedule a run sends. The
// schedule runs on past packet n, for a set-up that takes longer than
// expected.
func makeSchedule(m *core.Model, seed int64, rate float64, n int) (*lbSchedule, error) {
	horizon := 2 * float64(n) / m.MeanRate()
	for {
		s, err := netgen.GenerateHAP(m, horizon, seed)
		if err != nil {
			return nil, err
		}
		if len(s.Arrivals) > n {
			c := s.Arrivals[n-1].T * rate / float64(n)
			due := make([]time.Duration, len(s.Arrivals))
			for j, a := range s.Arrivals {
				due[j] = time.Duration(a.T / c * float64(time.Second))
			}
			return &lbSchedule{due: due, compress: c}, nil
		}
		horizon *= 2
	}
}

// sendItem is one packet of the merged send order.
type sendItem struct {
	due    time.Duration
	stream int
	seq    int
}

// mergeSchedules interleaves the streams' packets in due order (ties in
// stream order), so one sender can replay every stream.
func mergeSchedules(schs []*lbSchedule) []sendItem {
	var out []sendItem
	next := make([]int, len(schs))
	for {
		best := -1
		for s, sch := range schs {
			if next[s] < len(sch.due) && (best < 0 || sch.due[next[s]] < schs[best].due[next[best]]) {
				best = s
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, sendItem{due: schs[best].due[next[best]], stream: best, seq: next[best]})
		next[best]++
	}
}

// lbPad is the payload padding of each datagram, hapgen's default.
const lbPad = 64

// sender replays the merged schedule open loop: one goroutine writes
// every stream's packets on one UDP socket at their due times, however
// the daemon is doing.
type sender struct {
	conn  *net.UDPConn
	dst   []*net.UDPAddr
	order []sendItem
	start time.Time // set before run
	// limit is the send-time offset (ns) at which replay stops: no packet
	// due at or after it is sent.
	limit atomic.Int64
	late  []time.Duration // per sent packet, how far behind its due time it went out
	err   error
	done  chan struct{}
}

func newSender(dst []*net.UDPAddr, order []sendItem) (*sender, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("sender socket: %w", err)
	}
	s := &sender{conn: conn, dst: dst, order: order, late: make([]time.Duration, 0, len(order)), done: make(chan struct{})}
	s.limit.Store(1<<63 - 1)
	return s, nil
}

// run replays until the schedule or the limit is reached; start it once.
func (s *sender) run() {
	defer close(s.done)
	defer s.conn.Close()
	buf := make([]byte, 0, netgen.HeaderSize+lbPad)
	for _, it := range s.order {
		for {
			if int64(it.due) >= s.limit.Load() {
				return
			}
			wait := time.Until(s.start.Add(it.due))
			if wait <= 0 {
				break
			}
			// Short naps keep a lowered limit effective during long gaps.
			time.Sleep(min(wait, 5*time.Millisecond))
		}
		now := time.Now()
		buf = netgen.Packet{Seq: uint64(it.seq), SendUnix: now.UnixNano(), PadLen: lbPad}.Encode(buf[:0])
		if _, err := s.conn.WriteToUDP(buf, s.dst[it.stream]); err != nil {
			s.err = fmt.Errorf("send stream %d seq %d: %w", it.stream, it.seq, err)
			return
		}
		s.late = append(s.late, now.Sub(s.start.Add(it.due)))
	}
}

// stopAt ends replay before the first packet due at or after t and waits
// for the sender to finish.
func (s *sender) stopAt(t time.Time) {
	s.limit.Store(int64(t.Sub(s.start)))
	<-s.done
}

// decisions records, for one stream, when each refit cycle's decision
// first became visible to the client. Cycle k is the refit triggered by
// the stream's (k·refit)-th packet; its decision is visible at the first
// read of /fit whose fit.arrivals >= k·refit. A read that shows a later
// cycle also covers every earlier cycle still unseen, so a skipped cycle
// reads as late by about one refit interval instead of vanishing.
type decisions struct {
	refit int64
	seen  []time.Time // seen[k-1] for cycle k
}

func (d *decisions) observe(arrivals int64, at time.Time) {
	for int64(len(d.seen)+1)*d.refit <= arrivals {
		d.seen = append(d.seen, at)
	}
}

// cycleDue returns cycle k's due time: when the stream's (k·refit)-th
// packet was due to be sent.
func cycleDue(sch *lbSchedule, refit, k int, start time.Time) time.Time {
	return start.Add(sch.due[k*refit-1])
}

// cyclesIn returns the cycles of the stream due in [from, to), in order.
func cyclesIn(sch *lbSchedule, refit int, start, from, to time.Time) []int {
	var ks []int
	for k := 1; k*refit <= len(sch.due); k++ {
		t := cycleDue(sch, refit, k, start)
		if t.Before(from) {
			continue
		}
		if !t.Before(to) {
			break
		}
		ks = append(ks, k)
	}
	return ks
}

// httpRead is one client read of a stream's /fit view.
type httpRead struct {
	at  time.Time // response fully read
	rtt time.Duration
}

// poller reads the streams' /fit views over one keep-alive connection at
// a fixed cadence, recording when each cycle's decision became visible. A
// stream is read only once its next unseen cycle is due: before then no
// read can show that cycle, so skipping those reads leaves every latency
// unchanged and keeps the client's load on both processes small.
type poller struct {
	client *http.Client
	base   string
	every  time.Duration
	tr     *tracer
	schs   []*lbSchedule
	start  time.Time // when the sender started

	mu    sync.Mutex
	dec   []decisions
	reads []httpRead
	ready chan struct{} // closed once every stream has served a decision
	once  sync.Once
	stop  chan struct{}
	done  chan struct{}
	err   error
}

func newPoller(base string, schs []*lbSchedule, start time.Time, refit int, every time.Duration, tr *tracer) *poller {
	p := &poller{
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		},
		base: base, every: every, tr: tr, schs: schs, start: start,
		dec:   make([]decisions, len(schs)),
		ready: make(chan struct{}), stop: make(chan struct{}), done: make(chan struct{}),
	}
	for i := range p.dec {
		p.dec[i].refit = int64(refit)
	}
	return p
}

// run polls until stopped; start it once.
func (p *poller) run() {
	defer close(p.done)
	tick := time.NewTicker(p.every)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		all := true
		for s := range p.dec {
			p.mu.Lock()
			k := len(p.dec[s].seen) + 1
			p.mu.Unlock()
			if k*int(p.dec[s].refit) <= len(p.schs[s].due) && !time.Now().Before(cycleDue(p.schs[s], int(p.dec[s].refit), k, p.start)) {
				if err := p.read(s); err != nil {
					p.err = err
					return
				}
			}
			all = all && k > 1
		}
		if all {
			p.once.Do(func() { close(p.ready) })
		}
	}
}

func (p *poller) read(s int) error {
	t0 := time.Now()
	resp, err := p.client.Get(fmt.Sprintf("%s/v1/streams/s%d/fit", p.base, s))
	if err != nil {
		return fmt.Errorf("read s%d/fit: %w", s, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("read s%d/fit: %w", s, err)
	}
	t1 := time.Now()
	var arrivals int64
	switch resp.StatusCode {
	case http.StatusServiceUnavailable: // warming: no fit yet
	case http.StatusOK:
		var v struct {
			Fit struct {
				Arrivals int64 `json:"arrivals"`
			} `json:"fit"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("decode s%d/fit: %w", s, err)
		}
		arrivals = v.Fit.Arrivals
	default:
		return fmt.Errorf("read s%d/fit: status %d", s, resp.StatusCode)
	}
	p.mu.Lock()
	p.dec[s].observe(arrivals, t1)
	p.reads = append(p.reads, httpRead{at: t1, rtt: t1.Sub(t0)})
	p.mu.Unlock()
	if p.tr.on.Load() {
		p.tr.record("decide", "http", fmt.Sprintf("ctrl.http/s%d", s), int(arrivals/p.dec[s].refit), t0, t1)
	}
	return nil
}

// finish stops polling and waits for the poller to exit.
func (p *poller) finish() error {
	close(p.stop)
	<-p.done
	p.client.CloseIdleConnections()
	return p.err
}

// get fetches a document over the poller's connection.
func (p *poller) get(path string) ([]byte, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}
