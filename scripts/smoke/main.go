// Command smoke is the end-to-end smoke harness: each row drives shipped
// cmd/ binaries through one pipeline the way an operator would and
// asserts the properties CI relies on.
//
//	go run ./scripts/smoke [row...]
//
// With no row it runs every row, in table order. It builds the binaries
// the chosen rows need once, into a temporary directory, and prints
// "<row>-smoke: ok" or "<row>-smoke: <failure>" per row. It exits 0 when
// every row passes, 1 when any fails and 2 on an unknown row name.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"time"

	"hap/internal/netgen"
)

// row is one smoke check. bins are the cmd/ binaries it drives; run
// finds them, and keeps its scratch files, in dir.
type row struct {
	name string
	bins []string
	run  func(dir string) error
}

var rows = []row{
	{"metrics", []string{"hapsim"}, metricsRow},
	{"shard", []string{"hapsim"}, shardRow},
	{"fit", []string{"hapgen", "hapfit"}, fitRow},
	{"ctrl", []string{"hapd"}, ctrlRow},
	{"net", []string{"hapnet"}, netRow},
	{"cli", []string{"hapsim", "hapsolve", "hapnet", "hapgen", "hapfit", "hapd", "experiments"}, cliRow},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(names []string) int {
	todo := rows
	if len(names) > 0 {
		todo = nil
		for _, name := range names {
			i := slices.IndexFunc(rows, func(r row) bool { return r.name == name })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "smoke: unknown row %q; usage: go run ./scripts/smoke [metrics|shard|fit|ctrl|net|cli ...]\n", name)
				return 2
			}
			todo = append(todo, rows[i])
		}
	}

	dir, err := os.MkdirTemp("", "smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, r := range todo {
		for _, b := range r.bins {
			build = append(build, "./cmd/"+b) // go build loads a repeated package once
		}
	}
	cmd := exec.Command("go", build...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: go", strings.Join(build, " "), err)
		return 1
	}

	code := 0
	for _, r := range todo {
		if err := r.run(dir); err != nil {
			fmt.Fprintf(os.Stderr, "%s-smoke: %v\n", r.name, err)
			code = 1
			continue
		}
		fmt.Printf("%s-smoke: ok\n", r.name)
	}
	return code
}

// metricsRow: hapsim under -metrics, on a workload long enough to outlive
// one scrape, serves a non-empty exposition holding the observability
// contract's families (the sim counters live, the solver and netgen ones
// registered through the binary's imports) and /debug/vars as JSON.
func metricsRow(dir string) error {
	c, addr, err := serveMetrics(filepath.Join(dir, "hapsim"),
		"-horizon", "2e6", "-reps", "8", "-parallel", "1")
	if err != nil {
		return err
	}
	defer c.kill()
	page, err := scrape("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	if strings.TrimSpace(page) == "" {
		return errors.New("empty /metrics exposition")
	}
	if err := requireFamilies(page,
		"hap_sim_events_total",
		"hap_sim_queue_depth",
		"hap_sim_sched_pending",
		"hap_sim_stations",
		"hap_solver_iterations_total",
		"hap_netgen_packets_sent_total"); err != nil {
		return err
	}
	vars, err := scrape("http://" + addr + "/debug/vars")
	if err != nil {
		return err
	}
	if !strings.HasPrefix(strings.TrimSpace(vars), "{") {
		return fmt.Errorf("/debug/vars is not JSON: %.120s", vars)
	}
	return nil
}

// hapsimStats are the lines of hapsim's sharded report that the shard
// count must not change.
var hapsimStats = []string{"sharded aggregate:", "events ", "mean delay", "mean queue length"}

// shardRow: the sharded engine prints the same statistics on 1 and 4
// shards (the shard count changes wall time, never the numbers), and a
// sharded run under -metrics serves the scheduler gauges beside the
// event counters.
func shardRow(dir string) error {
	hapsim := filepath.Join(dir, "hapsim")
	if err := sameStats(hapsim, hapsimStats, "-shards", "1", "4",
		"-sources", "16", "-horizon", "1500", "-seed", "11"); err != nil {
		return err
	}
	c, addr, err := serveMetrics(hapsim,
		"-shards", "4", "-sources", "32", "-horizon", "2e4", "-seed", "11")
	if err != nil {
		return err
	}
	defer c.kill()
	page, err := scrape("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	return requireFamilies(page,
		"hap_sim_events_total",
		"hap_sim_sched_pending",
		"hap_sim_sched_buckets",
		"hap_sim_stations",
		"hap_sim_merges_total")
}

// fitRow: hapgen exports a Poisson trace of about 10k arrivals and
// hapfit -json must select poisson at the generator's rate, 8.25/s (the
// paper's mean rate and hapgen's -source poisson default): the
// deterministic contract of the generate → fit pipeline.
func fitRow(dir string) error {
	const wantRate, rateBand, minArrivals = 8.25, 0.10, 8000
	csv := filepath.Join(dir, "trace.csv")
	if _, err := output(filepath.Join(dir, "hapgen"), "-mode", "trace", "-source", "poisson",
		"-model-seconds", "1250", "-seed", "20260806", "-out", csv); err != nil {
		return err
	}
	out, err := output(filepath.Join(dir, "hapfit"), "-in", csv, "-json")
	if err != nil {
		return err
	}
	var rep struct {
		Trace struct {
			N int64 `json:"N"`
		} `json:"trace"`
		Best       string `json:"best"`
		Candidates []struct {
			Name string  `json:"name"`
			Rate float64 `json:"rate"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		return fmt.Errorf("parse hapfit report: %w\n%s", err, out)
	}
	if rep.Trace.N < minArrivals {
		return fmt.Errorf("trace holds %d arrivals, want at least %d", rep.Trace.N, minArrivals)
	}
	if rep.Best != "poisson" {
		return fmt.Errorf("selector picked %q on a Poisson trace, want poisson", rep.Best)
	}
	for _, c := range rep.Candidates {
		if c.Name != "poisson" {
			continue
		}
		if math.Abs(c.Rate-wantRate)/wantRate > rateBand {
			return fmt.Errorf("fitted rate %.4g, want %.4g within %.0f%%", c.Rate, wantRate, 100*rateBand)
		}
		fmt.Printf("fit-smoke: %d arrivals, best=%s, rate %.4g (truth %.4g)\n",
			rep.Trace.N, rep.Best, c.Rate, wantRate)
		return nil
	}
	return fmt.Errorf("no poisson candidate in report:\n%s", out)
}

// ctrlRow: hapd serves 3 streams from a 2-worker shared fit pool (fewer
// workers than streams is the point). Its small refit and window
// thresholds let one UDP burst per stream cross a full fit → solve →
// admit cycle. Every stream and the aggregate over all three must then
// serve a decision, each history must hold the fit and decision behind
// it, the hap_ctrl_* families must be live, and SIGTERM must drain the
// daemon to exit 0.
func ctrlRow(dir string) error {
	const streams = 3
	announce := []string{announceAPI}
	for i := 0; i < streams; i++ {
		announce = append(announce, announceStream(i))
	}
	c, addrs, err := start(filepath.Join(dir, "hapd"), announce,
		"-listen", strings.TrimSuffix(strings.Repeat("127.0.0.1:0,", streams), ","),
		"-workers", "2",
		"-mu3", "1e5",
		"-target", "0.01",
		"-refit", "200",
		"-min-window", "32",
		"-window", "600")
	if err != nil {
		return err
	}
	defer c.kill()
	for _, addr := range addrs[1:] {
		if err := feed(addr, 1200); err != nil {
			return err
		}
	}

	api := "http://" + addrs[0]
	for i := 0; i < streams; i++ {
		if err := pollDecision(fmt.Sprintf("%s/v1/streams/s%d/admit", api, i), 0); err != nil {
			return err
		}
	}
	// Every stream has decided, so a later aggregate recompute (1 s
	// tick) must merge all of them.
	if err := pollDecision(api+"/v1/aggregate/admit", streams); err != nil {
		return err
	}
	for i := 0; i < streams; i++ {
		url := fmt.Sprintf("%s/v1/streams/s%d/history", api, i)
		body, err := scrape(url)
		if err != nil {
			return err
		}
		var hist struct {
			Capacity int `json:"capacity"`
			Records  []struct {
				Fit      *json.RawMessage `json:"fit"`
				Decision *json.RawMessage `json:"decision"`
			} `json:"records"`
		}
		switch {
		case json.Unmarshal([]byte(body), &hist) != nil:
			return fmt.Errorf("GET %s: not JSON: %.200s", url, body)
		case hist.Capacity <= 0 || len(hist.Records) == 0:
			return fmt.Errorf("GET %s: history empty after decisions: %.200s", url, body)
		case hist.Records[0].Fit == nil || hist.Records[0].Decision == nil:
			return fmt.Errorf("GET %s: history record missing fit or decision: %.200s", url, body)
		}
	}

	page, err := scrape(api + "/metrics")
	if err != nil {
		return err
	}
	if err := requireFamilies(page,
		"hap_ctrl_streams",
		"hap_ctrl_arrivals_total",
		"hap_ctrl_refits_total",
		"hap_ctrl_solves_total",
		"hap_ctrl_pool_workers",
		"hap_ctrl_pool_jobs_total",
		"hap_ctrl_aggregate_streams",
		"hap_ctrl_aggregate_solves_total"); err != nil {
		return err
	}

	out, err := c.term()
	if err != nil {
		return fmt.Errorf("hapd %w", err)
	}
	if !strings.Contains(out, announceDrained) {
		return fmt.Errorf("hapd output lacks %q:\n%s", announceDrained, out)
	}
	return nil
}

// feed sends n sequenced packets to a stream sink, 200 µs apart so the
// fitted window spans a measurable interval.
func feed(addr string, n int) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var buf []byte
	for i := 1; i <= n; i++ {
		buf = netgen.Packet{Seq: uint64(i)}.Encode(buf[:0])
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// pollDecision polls a hapd admit endpoint until it serves a decision
// with an admit field that covers the given number of streams: 0 for a
// per-stream decision, all of them for the aggregate, whose product
// chain must then have 2^streams states. A failed request or a 503 (no
// fit yet) waits; any other status fails.
func pollDecision(url string, streams int) error {
	return poll(func() (string, error) {
		code, body, err := get(url)
		switch {
		case err != nil:
			return err.Error(), nil
		case code == http.StatusServiceUnavailable:
			return fmt.Sprintf("GET %s: %d: %.200s", url, code, body), nil
		case code != http.StatusOK:
			return "", fmt.Errorf("GET %s: %d: %.200s", url, code, body)
		}
		var dec struct {
			Admit   *bool    `json:"admit"`
			Streams []string `json:"streams"`
			States  int      `json:"states"`
		}
		if json.Unmarshal([]byte(body), &dec) != nil || dec.Admit == nil {
			return "", fmt.Errorf("GET %s: no admit field in %.200s", url, body)
		}
		if len(dec.Streams) != streams {
			return fmt.Sprintf("GET %s: decision covers %d of %d streams: %.300s",
				url, len(dec.Streams), streams, body), nil
		}
		if streams > 0 && dec.States != 1<<streams {
			return "", fmt.Errorf("GET %s: %d states over %d streams, want %d: %.200s",
				url, dec.States, streams, 1<<streams, body)
		}
		return "", nil
	})
}

// hapnetStats are the lines of hapnet's report that the worker count
// must not change.
var hapnetStats = []string{"topology ", "events ", "end-to-end sojourn", "edge", "bottleneck"}

// netRow: a Poisson-fed tandem conserves packets end to end, a zero or
// NaN Poisson rate is a usage error, a replicated fan-in prints the same
// statistics at -parallel 1 and 4, and a fan-in under -metrics serves the
// hap_net_* families with forwarded and delivered counters that move.
func netRow(dir string) error {
	hapnet := filepath.Join(dir, "hapnet")
	for _, rate := range []string{"0", "NaN"} {
		if err := usageError(hapnet, "-topo", "tandem", "-source", "poisson", "-rate", rate); err != nil {
			return err
		}
	}
	report := filepath.Join(dir, "tandem.json")
	if _, err := output(hapnet, "-topo", "tandem", "-nodes", "3", "-mu", "12",
		"-source", "poisson", "-rate", "8",
		"-horizon", "800", "-seed", "7", "-json", report); err != nil {
		return err
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		return err
	}
	if err := checkTandem(raw); err != nil {
		return err
	}

	if err := sameStats(hapnet, hapnetStats, "-parallel", "1", "4",
		"-topo", "fanin", "-k", "3", "-mu", "40",
		"-horizon", "400", "-seed", "11", "-reps", "4"); err != nil {
		return err
	}

	c, addr, err := serveMetrics(hapnet,
		"-topo", "fanin", "-k", "4", "-mu", "40", "-horizon", "3e4", "-seed", "11")
	if err != nil {
		return err
	}
	defer c.kill()
	// The forwarded counter flushes on a 4096-event watermark, so poll
	// until it moves.
	return poll(func() (string, error) {
		page, err := scrape("http://" + addr + "/metrics")
		if err != nil {
			return "", err
		}
		if err := requireFamilies(page,
			"hap_net_packets_forwarded_total",
			"hap_net_packets_delivered_total",
			"hap_net_packets_dropped_total",
			"hap_net_runs_total",
			"hap_net_nodes",
			"hap_net_node_queue_depth",
			"hap_net_hops_total"); err != nil {
			return "", err
		}
		if counterPositive(page, "hap_net_packets_forwarded_total") &&
			counterPositive(page, "hap_net_packets_delivered_total") {
			return "", nil
		}
		return "forwarded/delivered counters at zero\n--- page ---\n" + page, nil
	})
}

// cliRow: every binary reports a bad flag value as a usage error (exit
// status 2, one stderr line, no panic), and a hapsim or experiments run
// that -timeout cuts short exits 5 (cancelled) and still leaves a CPU and
// a heap profile that go tool pprof reads. It checks every case and
// reports each one that fails.
func cliRow(dir string) error {
	short := filepath.Join(dir, "short.csv")
	if err := os.WriteFile(short, []byte("0.1\n0.2\n0.3\n"), 0o644); err != nil {
		return err
	}
	var errs []error
	for _, c := range [][]string{
		{"hapsim", "-horizon", "-5"},
		{"hapsolve", "-lambda", "NaN"},
		{"hapnet", "-source", "poisson", "-rate", "NaN"},
		{"hapgen", "-mode", "trace", "-model-seconds", "NaN", "-out", filepath.Join(dir, "nan.csv")},
		{"hapfit", "-in", short},
		{"hapd", "-mu3", "1", "-target", "1", "-window", "NaN"},
		{"experiments", "-experiment", "E1", "-scale", "NaN", "-results", ""},
	} {
		errs = append(errs, usageError(filepath.Join(dir, c[0]), c[1:]...))
	}
	errs = append(errs,
		cutShort(filepath.Join(dir, "hapsim"), "-horizon", "5e7", "-timeout", "1500ms"),
		cutShort(filepath.Join(dir, "experiments"), "-results", "", "-timeout", "1s"))
	return errors.Join(errs...)
}

// cutShort runs bin with args, which -timeout must cut short, plus a CPU
// and a heap profile beside it. It fails unless bin exits 5 (cancelled)
// and go tool pprof reads both profiles.
func cutShort(bin string, args ...string) error {
	cpu, heap := bin+".cpu.prof", bin+".heap.prof"
	cmd := exec.Command(bin, append(args, "-cpuprofile", cpu, "-memprofile", heap)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	var errs []error
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 5 {
		errs = append(errs, fmt.Errorf("%s: %v; want exit status 5 (cancelled), stderr:\n%s",
			strings.Join(cmd.Args, " "), err, stderr.String()))
	}
	for _, p := range []string{cpu, heap} {
		if out, err := exec.Command("go", "tool", "pprof", "-top", p).CombinedOutput(); err != nil {
			errs = append(errs, fmt.Errorf("go tool pprof -top %s: %v\n%s", filepath.Base(p), err, out))
		}
	}
	return errors.Join(errs...)
}

// checkTandem checks hapnet's -json report of a tandem run: not
// truncated, traffic delivered, every node but the last forwarding, and
// offered = delivered + dropped (buffer full or hop limit) + in flight.
func checkTandem(raw []byte) error {
	var r struct {
		Nodes []struct {
			Name      string `json:"name"`
			Forwarded int64  `json:"forwarded"`
		} `json:"nodes"`
		Offered     int64 `json:"offered"`
		Delivered   int64 `json:"delivered"`
		DroppedFull int64 `json:"dropped_full"`
		DroppedHops int64 `json:"dropped_hops"`
		InFlight    int64 `json:"in_flight"`
		Truncated   bool  `json:"truncated"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("tandem report: %w", err)
	}
	if r.Truncated {
		return errors.New("tandem run truncated before its horizon")
	}
	if len(r.Nodes) == 0 {
		return fmt.Errorf("tandem report lists no nodes:\n%s", raw)
	}
	if r.Delivered == 0 {
		return fmt.Errorf("tandem delivered no packets:\n%s", raw)
	}
	for _, n := range r.Nodes[:len(r.Nodes)-1] {
		if n.Forwarded == 0 {
			return fmt.Errorf("tandem node %s forwarded nothing:\n%s", n.Name, raw)
		}
	}
	if got := r.Delivered + r.DroppedFull + r.DroppedHops + r.InFlight; got != r.Offered {
		return fmt.Errorf("tandem conservation violated: offered %d, accounted %d:\n%s", r.Offered, got, raw)
	}
	return nil
}

// deadline bounds every wait on a child: an announcement, a poll, and
// the exit after SIGTERM.
const deadline = 30 * time.Second

// Announcements the rows wait for. Every binary prints announceMetrics +
// ADDR + "/metrics" on stderr under -metrics; hapd prints one
// announceStream line per UDP sink on stdout, then announceAPI + ADDR,
// and announceDrained on a clean shutdown.
const (
	announceMetrics = "metrics: http://"
	announceAPI     = "api: http://"
	announceDrained = "hapd: drained"
)

func announceStream(i int) string { return fmt.Sprintf("stream s%d: udp ", i) }

// child is a running binary whose stdout and stderr, merged, are drained
// in the background, so it never blocks on a full pipe.
type child struct {
	cmd *exec.Cmd
	out <-chan string // all of the output, once it closes
}

// start runs bin and waits for the first output line, on stdout or
// stderr, beginning with each of the prefixes, returning the rest of
// each line in prefix order.
func start(bin string, prefixes []string, args ...string) (*child, []string, error) {
	cmd := exec.Command(bin, args...)
	output, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	found, out := watch(output, prefixes)
	c := &child{cmd: cmd, out: out}
	select {
	case vals, ok := <-found:
		if ok {
			return c, vals, nil
		}
		err = fmt.Errorf("%s exited without announcing %q:\n%s", filepath.Base(bin), prefixes, <-out)
	case <-time.After(deadline):
		err = fmt.Errorf("%s did not announce %q within %v", filepath.Base(bin), prefixes, deadline)
	}
	c.kill()
	return nil, nil, err
}

// serveMetrics starts bin with -metrics on an ephemeral port and returns
// the address it announced.
func serveMetrics(bin string, args ...string) (*child, string, error) {
	c, vals, err := start(bin, []string{announceMetrics}, append([]string{"-metrics", "127.0.0.1:0"}, args...)...)
	if err != nil {
		return nil, "", err
	}
	return c, strings.TrimSuffix(vals[0], "/metrics"), nil
}

// kill stops and reaps the child; after term both calls fail harmlessly.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// term sends SIGTERM and waits for the child to close its output and
// exit 0, returning the whole output. It is read to the end before Wait,
// which closes the pipe.
func (c *child) term() (string, error) {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", err
	}
	select {
	case out := <-c.out:
		if err := c.cmd.Wait(); err != nil {
			return out, fmt.Errorf("exited non-zero after SIGTERM: %w\n%s", err, out)
		}
		return out, nil
	case <-time.After(deadline):
		return "", fmt.Errorf("did not exit within %v of SIGTERM", deadline)
	}
}

// watch drains r line by line in the background. Once a line starting
// with each prefix has appeared, found receives the rest of the first
// such line for each prefix, in prefix order; found closes unsent if r
// ends first. out receives all of r when it ends.
func watch(r io.Reader, prefixes []string) (found <-chan []string, out <-chan string) {
	fc, oc := make(chan []string, 1), make(chan string, 1)
	go func() {
		vals := make([]string, len(prefixes))
		seen := make([]bool, len(prefixes))
		left := len(prefixes)
		var all strings.Builder
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			all.WriteString(line + "\n")
			for i, p := range prefixes {
				if rest, ok := strings.CutPrefix(line, p); ok && !seen[i] {
					vals[i], seen[i] = rest, true
					if left--; left == 0 {
						fc <- vals
					}
				}
			}
		}
		io.Copy(io.Discard, r) // past a scanner error (a line over 64 KiB), keep draining
		if left > 0 {
			close(fc)
		}
		oc <- all.String()
	}()
	return fc, oc
}

// poll runs step every 100 ms until it reports done (no wait reason and
// no error) or fails, and fails with step's last wait reason at the
// deadline.
func poll(step func() (wait string, err error)) error {
	end := time.Now().Add(deadline)
	for {
		wait, err := step()
		if err != nil || wait == "" {
			return err
		}
		if time.Now().After(end) {
			return fmt.Errorf("gave up after %v: %s", deadline, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

var client = &http.Client{Timeout: 10 * time.Second}

// get GETs url and returns the response status and body.
func get(url string) (int, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

// scrape GETs url and returns the body of a 200 response.
func scrape(url string) (string, error) {
	code, body, err := get(url)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: %d: %.200s", url, code, body)
	}
	return body, err
}

// requireFamilies fails unless every named metric family appears on the
// exposition page.
func requireFamilies(page string, names ...string) error {
	var missing []string
	for _, name := range names {
		if !strings.Contains(page, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("exposition missing %v\n--- page ---\n%s", missing, page)
	}
	return nil
}

// counterPositive reports whether the page's unlabelled sample of the
// named counter is nonzero.
func counterPositive(page, name string) bool {
	for _, line := range strings.Split(page, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1] != "0"
		}
	}
	return false
}

// output runs bin to completion and returns its stdout; stderr passes
// through.
func output(bin string, args ...string) (string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

// usageError runs bin expecting a usage error: exit status 2 and a
// one-line message on stderr. Go's runtime also exits 2 on a panic, so a
// "panic:" on stderr fails the check too.
func usageError(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	msg := strings.TrimSpace(stderr.String())
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		msg == "" || strings.Contains(msg, "\n") || strings.Contains(msg, "panic:") {
		return fmt.Errorf("%s %s: %v; want exit status 2 with a one-line message, stderr:\n%s",
			filepath.Base(bin), strings.Join(args, " "), err, msg)
	}
	return nil
}

// sameStats runs bin with args plus flag a and again with flag b, and
// fails unless both runs print the same statistics lines.
func sameStats(bin string, prefixes []string, flag, a, b string, args ...string) error {
	var got [2]string
	for i, v := range []string{a, b} {
		out, err := output(bin, append(args, flag, v)...)
		if err != nil {
			return err
		}
		if got[i], err = statsLines(out, prefixes); err != nil {
			return fmt.Errorf("%s %s %s: %w", filepath.Base(bin), flag, v, err)
		}
	}
	if got[0] != got[1] {
		return fmt.Errorf("statistics depend on %s:\n-- %s %s --\n%s\n-- %s %s --\n%s",
			flag, flag, a, got[0], flag, b, got[1])
	}
	return nil
}

// wallClock matches the report fields that differ between runs of the
// same model: the wall-time suffix, hapsim's aggregate events/s and its
// shard count.
var wallClock = regexp.MustCompile(`(, wall .*$| on \d+ shards|\(.*events/s aggregate\))`)

// statsLines keeps the report lines that begin with one of the prefixes,
// with their wall-clock fields stripped, and fails on fewer lines than
// prefixes.
func statsLines(out string, prefixes []string) (string, error) {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				keep = append(keep, wallClock.ReplaceAllString(line, ""))
				break
			}
		}
	}
	if len(keep) < len(prefixes) {
		return "", fmt.Errorf("expected %d statistics lines, got %d:\n%s", len(prefixes), len(keep), out)
	}
	return strings.Join(keep, "\n"), nil
}
