package main

import (
	"strings"
	"testing"
)

// Real hapsim reports of one sharded model on 4 and 1 shards: only the
// wall time, the events/s rate and the shard count differ.
const (
	hapsimFour = `source: 16 × symmetric-HAP{λ=0.0055 μ=0.001 l=5 leaves=15 λ̄=8.25}

sharded aggregate: 16 sources on 4 shards, wall 38.523486ms
events 422882, arrivals 195074, departures 195013 (1.098e+07 events/s aggregate)
mean delay         1.6419 s (std 5.648, max 40.25, n=194580)
mean queue length  13.451 (max 640, per source)
`
	hapsimOne = `source: 16 × symmetric-HAP{λ=0.0055 μ=0.001 l=5 leaves=15 λ̄=8.25}

sharded aggregate: 16 sources on 1 shards, wall 78.711784ms
events 422882, arrivals 195074, departures 195013 (5.373e+06 events/s aggregate)
mean delay         1.6419 s (std 5.648, max 40.25, n=194580)
mean queue length  13.451 (max 640, per source)
`
	hapnetReport = `source: symmetric-HAP{λ=0.0055 μ=0.001 l=5 leaves=15 λ̄=8.25} per ingress (λ̄ = 8.25)

topology fanin: 4 nodes, 3 links, horizon 400 s × 4 reps, wall 9.912033ms
events 123255, offered 29494, delivered 29479, dropped 0 (full) + 0 (hop limit), in flight 15

node                 in  forwarded  delivered  dropped mean sojourn   mean queue
edge0              7387       7387          0        0   9.9827e-06   4.6877e-05
edge1             11827      11827          0        0   9.8629e-06   7.3465e-05
edge2             10280      10280          0        0   9.9219e-06   6.4555e-05
bottleneck        29494          0      29479        0     0.056647       1.0529

end-to-end sojourn  0.056599 s (std 0.06012, max 0.4849, n=29479)
`
)

func TestStatsLinesStripsWallClock(t *testing.T) {
	four, err := statsLines(hapsimFour, hapsimStats)
	if err != nil {
		t.Fatal(err)
	}
	one, err := statsLines(hapsimOne, hapsimStats)
	if err != nil {
		t.Fatal(err)
	}
	want := "sharded aggregate: 16 sources\n" +
		"events 422882, arrivals 195074, departures 195013 \n" +
		"mean delay         1.6419 s (std 5.648, max 40.25, n=194580)\n" +
		"mean queue length  13.451 (max 640, per source)"
	if four != want || one != want {
		t.Errorf("hapsim statistics:\n-- 4 shards --\n%s\n-- 1 shard --\n%s\n-- want --\n%s", four, one, want)
	}

	net, err := statsLines(hapnetReport, hapnetStats)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"topology fanin: 4 nodes, 3 links, horizon 400 s × 4 reps\n",
		"events 123255, offered 29494, delivered 29479, dropped 0 (full) + 0 (hop limit), in flight 15\n",
		"edge2             10280      10280          0        0   9.9219e-06   6.4555e-05\n",
		"end-to-end sojourn  0.056599 s (std 0.06012, max 0.4849, n=29479)",
	} {
		if !strings.Contains(net, line) {
			t.Errorf("hapnet statistics lack %q:\n%s", line, net)
		}
	}
	if strings.Contains(net, "wall") {
		t.Errorf("hapnet wall time kept:\n%s", net)
	}

	// A statistic printed inside a kept line is compared, not stripped.
	leaky := strings.Replace(hapsimFour, "1.6419 s", "1.6419 s [4 shards]", 1)
	if got, _ := statsLines(leaky, hapsimStats); got == want {
		t.Error("a shard count inside mean delay was stripped")
	}
	if _, err := statsLines("events 1\nmean delay 2\n", hapsimStats); err == nil {
		t.Error("a report with 2 of 4 statistics lines passed")
	}
}

func TestRequireFamilies(t *testing.T) {
	page := "# TYPE hap_net_nodes gauge\nhap_net_nodes 4\n" +
		"# TYPE hap_net_hops_total counter\nhap_net_hops_total{hop=\"1\"} 12\n"
	if err := requireFamilies(page, "hap_net_nodes", "hap_net_hops_total"); err != nil {
		t.Error(err)
	}
	err := requireFamilies(page, "hap_net_nodes", "hap_net_runs_total", "hap_net_node_queue_depth")
	if err == nil || !strings.Contains(err.Error(), "[hap_net_runs_total hap_net_node_queue_depth]") {
		t.Errorf("missing families reported as %v", err)
	}
}

func TestCounterPositive(t *testing.T) {
	const name = "hap_net_packets_forwarded_total"
	for _, c := range []struct {
		page string
		want bool
	}{
		{name + " 0\n", false},
		{name + " 12\n", true},
		{name + "{node=\"edge0\"} 12\n" + name + " 0\n", false},
		{name + "{node=\"edge0\"} 12\n", false},
		{"# HELP " + name + " Packets forwarded.\n" + name + "_other 5\n", false},
	} {
		if got := counterPositive(c.page, name); got != c.want {
			t.Errorf("counterPositive(%q) = %v, want %v", c.page, got, c.want)
		}
	}
}

func TestWatchAnnouncements(t *testing.T) {
	// hapd's real stdout over a run: two sinks, the API, then the drain.
	hapd := "stream s0: udp 127.0.0.1:33285\n" +
		"stream s1: udp 127.0.0.1:40653\n" +
		"api: http://127.0.0.1:41343\n" +
		"hapd: drained\n"
	found, out := watch(strings.NewReader(hapd),
		[]string{announceAPI, announceStream(0), announceStream(1)})
	vals, ok := <-found
	if !ok {
		t.Fatal("hapd announcements not found")
	}
	if want := []string{"127.0.0.1:41343", "127.0.0.1:33285", "127.0.0.1:40653"}; strings.Join(vals, " ") != strings.Join(want, " ") {
		t.Errorf("hapd announcements = %q, want %q", vals, want)
	}
	if all := <-out; !strings.Contains(all, announceDrained) {
		t.Errorf("drained stdout lacks %q:\n%s", announceDrained, all)
	}

	hapsim := "metrics: http://127.0.0.1:40653/metrics\nsource: symmetric-HAP{λ=0.0055}\n"
	found, _ = watch(strings.NewReader(hapsim), []string{announceMetrics})
	if vals, ok := <-found; !ok || vals[0] != "127.0.0.1:40653/metrics" {
		t.Errorf("hapsim announcement = %q, %v", vals, ok)
	}

	// stream s1 is never announced (s10 is not s1): found closes unsent.
	found, _ = watch(strings.NewReader("stream s10: udp 127.0.0.1:1\napi: http://127.0.0.1:2\n"),
		[]string{announceAPI, announceStream(1)})
	if vals, ok := <-found; ok {
		t.Errorf("partial announcements delivered: %q", vals)
	}
}

func TestCheckTandem(t *testing.T) {
	ok := `{"nodes":[{"name":"n0","forwarded":9},{"name":"n1","forwarded":7},{"name":"n2","forwarded":0}],
		"offered":10,"delivered":6,"dropped_full":1,"dropped_hops":0,"in_flight":3}`
	if err := checkTandem([]byte(ok)); err != nil {
		t.Error(err)
	}
	for name, raw := range map[string]string{
		"no nodes":     `{"nodes":[],"offered":1,"delivered":1}`,
		"truncated":    strings.Replace(ok, `"in_flight":3`, `"in_flight":3,"truncated":true`, 1),
		"leak":         strings.Replace(ok, `"in_flight":3`, `"in_flight":2`, 1),
		"idle node":    strings.Replace(ok, `"forwarded":7`, `"forwarded":0`, 1),
		"not JSON":     `nodes: 3`,
		"no delivered": strings.Replace(ok, `"delivered":6`, `"delivered":0`, 1),
	} {
		if err := checkTandem([]byte(raw)); err == nil {
			t.Errorf("%s: tandem report passed", name)
		}
	}
}

func TestUsageError(t *testing.T) {
	sh := func(script string) error { return exitsWith(2, "/bin/sh", "-c", script) }
	if err := sh("echo 'bad rate' >&2; exit 2"); err != nil {
		t.Error(err)
	}
	for name, script := range map[string]string{
		"exit 0":     "echo 'bad rate' >&2",
		"exit 1":     "echo 'bad rate' >&2; exit 1",
		"silent":     "exit 2",
		"two lines":  "printf 'bad\\nrate\\n' >&2; exit 2",
		"Go's panic": "echo 'panic: bad rate' >&2; exit 2",
	} {
		if err := sh(script); err == nil {
			t.Errorf("%s: passed as a usage error", name)
		}
	}
}
