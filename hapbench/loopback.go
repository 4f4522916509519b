package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hap/internal/core"
	"hap/internal/dist"
)

// hapd-loopback settings: two streams, each a P0 schedule compressed to
// lbRate packets per second, sharing one fit worker. The daemon re-fits a
// stream every lbRefit packets (every 100 ms) over an lbWindow-second
// window (~10k timestamps), so the pair offers 2·lbRate/lbRefit = 20
// cycles a second. At this rate a kernel socket buffer absorbs a ~100 ms
// stall of the daemon's ingest without loss, which keeps the run clear of
// the knee on a shared 2-core box. -mu3 and -target are P0’s μ″ and
// lbTarget scaled by each stream's compression, so ρ ≈ 0.41 in wall time
// too and the admission headroom stays finite (below 1/ρ).
const (
	lbStreams = 2
	lbRate    = 2500.0
	lbRefit   = 250
	lbWindow  = 4.0
	lbTarget  = 0.5 // model seconds
	lbHistory = 4096
	// lbReadEvery is the read cadence of the /fit poller, and so the
	// resolution of the decision latency.
	lbReadEvery = time.Millisecond
	lbBootWait  = 15 * time.Second
	lbGrace     = 2 * time.Second
	lbDrainWait = 30 * time.Second
)

// daemon is one hapd process.
type daemon struct {
	cmd   *exec.Cmd
	udp   []*net.UDPAddr
	api   string
	start time.Time
	up    time.Time   // when hapd had announced every socket and its API
	rest  chan string // stdout after the address lines, once it closes
}

func startDaemon(r *run, schs []*lbSchedule) (*daemon, error) {
	nom := lbRate / core.PaperParams(p0Mu).MeanRate()
	var listen, rates, targets []string
	for _, s := range schs {
		listen = append(listen, "127.0.0.1:0")
		rates = append(rates, ftoa(p0Mu*s.compress))
		targets = append(targets, ftoa(lbTarget/s.compress))
	}
	cmd := exec.Command(r.hapd,
		"-listen", strings.Join(listen, ","),
		"-workers", "1",
		"-refit", strconv.Itoa(lbRefit),
		"-window", ftoa(lbWindow),
		"-history", strconv.Itoa(lbHistory),
		"-mu3", ftoa(p0Mu*nom), "-target", ftoa(lbTarget/nom),
		"-rates", strings.Join(rates, ","), "-targets", strings.Join(targets, ","))
	cmd.Stderr = os.Stderr
	// hapd must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, start: time.Now(), rest: make(chan string, 1)}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hapd: %w", err)
	}
	r.cleanups = append(r.cleanups, d.kill)
	if err := d.readAddrs(out, len(schs)); err != nil {
		return nil, err
	}
	d.up = time.Now()
	return d, nil
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// readAddrs parses the stream and API announcements, then drains the rest
// of stdout in the background.
func (d *daemon) readAddrs(out io.Reader, n int) error {
	sc := bufio.NewScanner(out)
	d.udp = make([]*net.UDPAddr, n)
	for d.api == "" && sc.Scan() {
		line := sc.Text()
		var id, addr string
		switch {
		case strings.HasPrefix(line, "stream "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("hapd: unexpected line %q", line)
			}
			id, addr = strings.TrimSuffix(f[1], ":"), f[3]
			i, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
			if err != nil || i < 0 || i >= n {
				return fmt.Errorf("hapd: unexpected stream %q", id)
			}
			if d.udp[i], err = net.ResolveUDPAddr("udp", addr); err != nil {
				return err
			}
		case strings.HasPrefix(line, "api: http://"):
			d.api = strings.TrimPrefix(line, "api: http://")
		}
	}
	if d.api == "" {
		return fmt.Errorf("hapd exited before announcing its API: %v", sc.Err())
	}
	for i, a := range d.udp {
		if a == nil {
			return fmt.Errorf("hapd did not announce stream s%d", i)
		}
	}
	go func() {
		var b bytes.Buffer
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		d.rest <- b.String()
	}()
	return nil
}

// kill stops a daemon that was not drained and waits for it.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
}

// drain sends SIGTERM and returns nil only if hapd announced its drain
// and exited 0. It returns the process's peak resident set in MB.
func (d *daemon) drain() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	var out string
	select {
	case out = <-d.rest:
	case <-time.After(lbDrainWait):
		d.kill()
		return 0, fmt.Errorf("hapd did not exit within %v of SIGTERM", lbDrainWait)
	}
	err := d.cmd.Wait()
	rss := 0.0
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("hapd exited non-zero after SIGTERM: %w", err)
	}
	if !strings.Contains(out, "hapd: drained") {
		return rss, fmt.Errorf("hapd did not announce its drain")
	}
	return rss, nil
}

// liveDaemon is one booted daemon with its load running.
type liveDaemon struct {
	d   *daemon
	snd *sender
	pol *poller
}

// boot starts hapd and the load, and returns once every stream has served
// its first decision. The set-up time it returns is hapd's own: from its
// start until it announced its sockets and API, plus the longest wait of a
// stream from its first cycle's due time until its first decision was
// visible. The wait for the first cycle's packets is left out, since it
// follows the schedule, not the program.
func boot(r *run, schs []*lbSchedule, order []sendItem) (*liveDaemon, float64, error) {
	d, err := startDaemon(r, schs)
	if err != nil {
		return nil, 0, err
	}
	snd, err := newSender(d.udp, order)
	if err != nil {
		_, _ = d.drain()
		return nil, 0, err
	}
	snd.start = time.Now()
	pol := newPoller("http://"+d.api, schs, snd.start, lbRefit, lbReadEvery, r.tr)
	go snd.run()
	go pol.run()
	s := &liveDaemon{d: d, snd: snd, pol: pol}
	select {
	case <-pol.ready:
		first := 0.0
		pol.mu.Lock()
		for i, sch := range schs {
			first = math.Max(first, pol.dec[i].seen[0].Sub(cycleDue(sch, lbRefit, 1, snd.start)).Seconds())
		}
		pol.mu.Unlock()
		return s, d.up.Sub(d.start).Seconds() + first, nil
	case <-pol.done:
		err = pol.err
	case <-time.After(lbBootWait):
		err = fmt.Errorf("no first decision on every stream within %v", lbBootWait)
	}
	snd.stopAt(time.Now())
	_ = pol.finish()
	_, _ = d.drain()
	return nil, 0, err
}

// metricsPage parses a Prometheus exposition into name{labels} -> value.
func metricsPage(p *poller) (map[string]float64, error) {
	body, err := p.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// settledMetrics scrapes until every packet sent is accounted for as
// ingested, rejected or lost, or until the ingest count stops moving, or
// until the deadline.
func settledMetrics(p *poller, sent float64, deadline time.Time) (map[string]float64, error) {
	last := -1.0
	for {
		m, err := metricsPage(p)
		if err != nil {
			return nil, err
		}
		n := m["hap_ctrl_arrivals_total"]
		if n+m["hap_ctrl_ingest_errors_total"]+m["hap_netgen_packets_dropped_total"] >= sent || n == last || time.Now().After(deadline) {
			return m, nil
		}
		last = n
		time.Sleep(100 * time.Millisecond)
	}
}

// window is one measured span of the run with the daemon's counters at
// its ends.
type window struct {
	from, to time.Time
	m0, m1   map[string]float64
}

func (w window) delta(name string) float64 { return w.m1[name] - w.m0[name] }

// historyRecord is the part of a /history record the benchmark reads.
type historyRecord struct {
	Fit struct {
		Arrivals  int64 `json:"arrivals"`
		WindowN   int   `json:"window_n"`
		Converged bool  `json:"converged"`
	} `json:"fit"`
	SolveOK bool `json:"solve_ok"`
}

func runLoopback(r *run) error {
	if r.hapd == "" {
		return fmt.Errorf("hapd-loopback needs -hapd")
	}
	m := core.PaperParams(p0Mu)
	// The stated rate holds over the seconds a run sends; boots replay
	// the schedule from its start.
	n := int(math.Ceil((r.seconds + 1) * lbRate))
	var (
		s    *liveDaemon
		schs []*lbSchedule
	)
	// A set-up generates the streams' schedules, as p0-offline's generates
	// its trace, and boots hapd; every boot but the last is drained.
	err := r.setUp(func(i int) (float64, error) {
		if s != nil {
			s.snd.stopAt(time.Now())
			if err := s.pol.finish(); err != nil {
				return 0, err
			}
			_, err := s.d.drain()
			r.check(err == nil, "hapd drain after set-up boot %d: %v", i-1, err)
		}
		t0 := time.Now()
		schs = make([]*lbSchedule, lbStreams)
		for j := range schs {
			var err error
			if schs[j], err = makeSchedule(m, dist.SubSeed(r.seed, j), lbRate, n); err != nil {
				return 0, err
			}
		}
		order := mergeSchedules(schs)
		gen := time.Since(t0).Seconds()
		var (
			bootS float64
			err   error
		)
		if s, bootS, err = boot(r, schs, order); err != nil {
			return 0, err
		}
		fmt.Printf("hapd-loopback set-up %d: schedules %.4f s, hapd %.4f s\n", i, gen, bootS)
		return gen + bootS, nil
	})
	if err != nil {
		return err
	}
	return measureLoopback(r, s, schs)
}

// measureLoopback runs the measured phase on a booted liveDaemon and shuts
// it down. An untraced run measures one window of r.seconds; a traced run
// measures an untraced half and then a traced half.
func measureLoopback(r *run, s *liveDaemon, schs []*lbSchedule) error {
	halves := 1
	if r.traced {
		halves = 2
	}
	ws := make([]window, halves)
	m0, err := metricsPage(s.pol)
	if err != nil {
		return err
	}
	for h := range ws {
		r.tr.on.Store(r.traced && h == 1)
		ws[h].from, ws[h].m0 = time.Now(), m0
		time.Sleep(time.Duration(r.seconds / float64(halves) * float64(time.Second)))
		ws[h].to = time.Now()
		if m0, err = metricsPage(s.pol); err != nil {
			return err
		}
		ws[h].m1 = m0
	}
	r.tr.on.Store(false)
	from, to := ws[0].from, ws[halves-1].to
	s.snd.stopAt(to)
	if s.snd.err != nil {
		return s.snd.err
	}

	// Let in-flight cycles publish, then read the final state.
	due := make([][]int, len(schs))
	for i, sch := range schs {
		due[i] = cyclesIn(sch, lbRefit, s.snd.start, from, to)
	}
	for deadline := time.Now().Add(lbGrace); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		done := true
		s.pol.mu.Lock()
		for i := range schs {
			done = done && (len(due[i]) == 0 || len(s.pol.dec[i].seen) >= due[i][len(due[i])-1])
		}
		s.pol.mu.Unlock()
		if done {
			break
		}
	}
	final, err := settledMetrics(s.pol, float64(len(s.snd.late)), time.Now().Add(lbGrace))
	if err != nil {
		return err
	}
	hist := make([]map[int64]historyRecord, len(schs))
	for i := range schs {
		body, err := s.pol.get(fmt.Sprintf("/v1/streams/s%d/history", i))
		if err != nil {
			return err
		}
		var h struct {
			Records []historyRecord `json:"records"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return fmt.Errorf("decode s%d/history: %w", i, err)
		}
		hist[i] = map[int64]historyRecord{}
		for _, rec := range h.Records {
			hist[i][rec.Fit.Arrivals] = rec
		}
		checkAdmit(r, s.pol, i)
	}
	if err := s.pol.finish(); err != nil {
		return err
	}
	rss, err := s.d.drain()
	r.check(err == nil, "hapd drain: %v", err)

	// Conservation: every packet sent was ingested, rejected by the
	// window, or counted lost by the sink.
	sent := float64(len(s.snd.late))
	ingested := final["hap_ctrl_arrivals_total"]
	lost := final["hap_netgen_packets_dropped_total"]
	r.check(sent == ingested+final["hap_ctrl_ingest_errors_total"]+lost,
		"packets sent %.0f != ingested %.0f + rejected %.0f + lost %.0f", sent, ingested, final["hap_ctrl_ingest_errors_total"], lost)

	rep := window{from: from, to: to, m0: ws[0].m0, m1: ws[halves-1].m1}
	if r.traced {
		rep = ws[1]
	}
	cs := decisionLatencies(s, schs, hist, rep.from, rep.to)
	var lat []float64
	var missing, never int
	for _, c := range cs {
		lat = append(lat, c.ms())
		if c.missing {
			missing++
		}
		if c.never {
			never++
		}
		if r.traced {
			r.tr.record("decide", "ctrl", fmt.Sprintf("ctrl.decision/s%d", c.stream), c.k, c.due, c.seen)
		}
	}
	cycles := len(cs)
	r.attempted, r.failed = cycles, never
	ls := sorted(lat)
	r.endToEnd("op_ms", percentile(ls, 0.5))
	r.perLayer("ctrl.cycles_due", float64(cycles))
	r.perLayer("ctrl.miss_share", float64(missing)/float64(cycles))
	r.perLayer("netgen.loss_share", (sent-ingested)/sent)
	r.perLayer("mem.peak_rss_mb", rss)
	fmt.Printf("hapd-loopback: %d cycles due, %d missing from history, %d never visible; p50 %.3f ms, p90 %.3f ms (reads every %v); sent %.0f, ingested %.0f\n",
		cycles, missing, never, percentile(ls, 0.5), percentile(ls, 0.9), lbReadEvery, sent, ingested)

	// Regime: the generator kept to its schedule.
	offered, nominal, lateP99 := generatorRate(s.snd, rep)
	r.check(math.Abs(offered/nominal-1) <= 0.05, "offered %.0f pkts/s not within 5%% of the schedule's %.0f", offered, nominal)
	interval := lbRefit / lbRate * 1000
	r.check(lateP99 < interval, "generator p99 lateness %.3f ms not under one refit interval (%.0f ms)", lateP99, interval)

	if r.traced {
		loopbackLayers(r, s, schs, ls, hist, rep, offered, lateP99)
		plain := decisionLatencies(s, schs, hist, ws[0].from, ws[0].to)
		r.perLayer("trace.overhead_share", meanMs(cs)/meanMs(plain)-1)
	}
	return nil
}

// checkAdmit requires the stream to serve a decision with a finite delay
// and headroom.
func checkAdmit(r *run, p *poller, i int) {
	body, err := p.get(fmt.Sprintf("/v1/streams/s%d/admit", i))
	if err != nil {
		r.check(false, "s%d/admit: %v", i, err)
		return
	}
	var a struct {
		Delay    float64 `json:"delay_seconds"`
		Headroom float64 `json:"headroom"`
		Reason   string  `json:"reason"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		r.check(false, "decode s%d/admit: %v", i, err)
		return
	}
	finite := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
	r.check(finite(a.Delay) && finite(a.Headroom), "s%d decision: delay %v, headroom %v (%s)", i, a.Delay, a.Headroom, a.Reason)
}

// cycleLatency is one refit cycle's packet-to-decision latency.
type cycleLatency struct {
	stream, k int
	due, seen time.Time
	missing   bool // absent from the stream's history at the end
	never     bool // no read showed it; seen is the end of the grace period
}

func (c cycleLatency) ms() float64 { return c.seen.Sub(c.due).Seconds() * 1000 }

// decisionLatencies returns every cycle due in [from, to) with its latency.
func decisionLatencies(s *liveDaemon, schs []*lbSchedule, hist []map[int64]historyRecord, from, to time.Time) []cycleLatency {
	s.pol.mu.Lock()
	defer s.pol.mu.Unlock()
	end := time.Now()
	var out []cycleLatency
	for i, sch := range schs {
		for _, k := range cyclesIn(sch, lbRefit, s.snd.start, from, to) {
			c := cycleLatency{stream: i, k: k, due: cycleDue(sch, lbRefit, k, s.snd.start), seen: end}
			_, ok := hist[i][int64(k*lbRefit)]
			c.missing = !ok
			if k <= len(s.pol.dec[i].seen) {
				c.seen = s.pol.dec[i].seen[k-1]
			} else {
				c.never = true
			}
			out = append(out, c)
		}
	}
	return out
}

// meanMs is the mean latency (ms) of the cycles.
func meanMs(cs []cycleLatency) float64 {
	var sum float64
	for _, c := range cs {
		sum += c.ms()
	}
	return sum / float64(len(cs))
}

// generatorRate compares the packets sent in w with the packets due in w
// (pkts/s) and returns the p99 lateness (ms) of the packets due in w.
func generatorRate(snd *sender, w window) (offered, nominal, lateP99 float64) {
	var sentIn, dueIn int
	var late []float64
	for j, l := range snd.late {
		dueAt := snd.start.Add(snd.order[j].due)
		sentAt := dueAt.Add(l)
		if !sentAt.Before(w.from) && sentAt.Before(w.to) {
			sentIn++
		}
		if !dueAt.Before(w.from) && dueAt.Before(w.to) {
			dueIn++
			late = append(late, l.Seconds()*1000)
		}
	}
	span := w.to.Sub(w.from).Seconds()
	return float64(sentIn) / span, float64(dueIn) / span, percentile(sorted(late), 0.99)
}

// loopbackLayers reports the daemon's per-layer numbers over w from its
// /metrics counters and decision history, and prints the breakdown of the
// mean decision latency.
func loopbackLayers(r *run, s *liveDaemon, schs []*lbSchedule, ls []float64, hist []map[int64]historyRecord, w window, offered, lateP99 float64) {
	refits, solves := w.delta("hap_ctrl_refit_count"), w.delta("hap_ctrl_solve_count")
	refitMs := 1000 * w.delta("hap_ctrl_refit_seconds_sum") / refits
	solveMs := 1000 * w.delta("hap_ctrl_solve_seconds_sum") / solves
	em := w.delta("hap_fit_em_iterations_total")
	meanLat := total(ls) / float64(len(ls))

	var windowN, useful, completed float64
	for i, sch := range schs {
		for _, k := range cyclesIn(sch, lbRefit, s.snd.start, w.from, w.to) {
			rec, ok := hist[i][int64(k*lbRefit)]
			if !ok {
				continue
			}
			completed++
			windowN += float64(rec.Fit.WindowN)
			if rec.Fit.Converged && rec.SolveOK {
				useful++
			}
		}
	}
	r.perLayer("trace.op_ms", meanLat)
	r.perLayer("fit.share", refitMs/meanLat)
	r.perLayer("ctrl.share", solveMs/meanLat)
	r.perLayer("residual.share", 1-(refitMs+solveMs)/meanLat)
	r.perLayer("fit.arrivals_per_s", windowN/completed/(refitMs/1000))
	r.perLayer("fit.em_iters", em/refits)
	r.perLayer("gm1.sigma_iters", w.delta("hap_gm1_sigma_iterations_total")/solves)
	r.perLayer("ctrl.window_n", windowN/completed)
	r.perLayer("ctrl.skipped", w.delta("hap_ctrl_refits_skipped_total"))
	r.perLayer("ctrl.useful_share", useful/completed)
	p50 := percentile(ls, 0.5)
	r.perLayer("ctrl.p90_over_p50", percentile(ls, 0.9)/p50)
	r.perLayer("ctrl.p99_over_p50", percentile(ls, 0.99)/p50)

	s.pol.mu.Lock()
	var rtt []float64
	for _, rd := range s.pol.reads {
		if !rd.at.Before(w.from) && rd.at.Before(w.to) {
			rtt = append(rtt, rd.rtt.Seconds()*1000)
		}
	}
	s.pol.mu.Unlock()
	r.perLayer("ctrl.http_share", median(rtt)/meanLat)
	r.perLayer("netgen.lost_blocked", w.delta("hap_netgen_packets_dropped_blocked_total"))
	r.perLayer("loadgen.offered_pps", offered)
	r.perLayer("loadgen.late_share", lateP99/(lbRefit/lbRate*1000))

	p, v, ok := tail(ls)
	tailNote := "fewer than ten cycles beyond p90"
	if ok {
		tailNote = fmt.Sprintf("p%g %.3f ms has %d cycles beyond it", 100*p, v, beyond(ls, v))
	}
	fmt.Printf("breakdown decide     mean decision latency %.4f ms over %d cycles (reads every %v; %s)\n",
		meanLat, len(ls), lbReadEvery, tailNote)
	for _, row := range []struct {
		name string
		v    float64
	}{{"fit", refitMs}, {"ctrl", solveMs}, {residualLayer, meanLat - refitMs - solveMs}} {
		fmt.Printf("  %-10s %9.4f ms %6.2f%%\n", row.name, row.v, 100*row.v/meanLat)
	}
}
