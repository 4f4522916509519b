// Command shardsmoke is the `make shard-smoke` gate for the sharded
// simulation engine. It builds cmd/hapsim and asserts the two properties
// CI cares about:
//
//  1. Determinism: the same aggregate run on -shards 1 and -shards 4
//     prints bit-identical statistics (event/arrival/departure counters,
//     delay and queue moments) — shard count changes wall-clock time,
//     never the numbers. Wall-clock fields (elapsed, events/s) are
//     stripped before comparing.
//  2. Liveness under -metrics: a sharded run with the metrics server
//     exposes the scheduler gauges (hap_sim_sched_pending,
//     hap_sim_sched_buckets, hap_sim_stations) alongside the event
//     counters, and exits 0.
package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shard-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("shard-smoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "shardsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "hapsim")

	build := exec.Command("go", "build", "-o", bin, "./cmd/hapsim")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build hapsim: %w", err)
	}

	// Determinism: identical aggregate on 1 and 4 shards.
	one, err := statsLines(bin, "-shards", "1", "-sources", "16", "-horizon", "1500", "-seed", "11")
	if err != nil {
		return err
	}
	four, err := statsLines(bin, "-shards", "4", "-sources", "16", "-horizon", "1500", "-seed", "11")
	if err != nil {
		return err
	}
	if one != four {
		return fmt.Errorf("sharded stats depend on shard count:\n-- shards=1 --\n%s\n-- shards=4 --\n%s", one, four)
	}

	// Metrics: a sharded run serves the scheduler gauges.
	return metricsCheck(bin)
}

// wallClock matches the fields of the hapsim report that legitimately
// differ between runs: the wall-time suffix, the aggregate events/s rate,
// and the shard count itself.
var wallClock = regexp.MustCompile(`(, wall .*$| on \d+ shards|\(.*events/s aggregate\))`)

// statsLines runs hapsim and returns its deterministic statistics lines
// with wall-clock fields removed.
func statsLines(bin string, args ...string) (string, error) {
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("hapsim %s: %w\n%s", strings.Join(args, " "), err, out)
	}
	var keep []string
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "sharded aggregate:"),
			strings.HasPrefix(line, "events "),
			strings.HasPrefix(line, "mean delay"),
			strings.HasPrefix(line, "mean queue length"):
			keep = append(keep, wallClock.ReplaceAllString(line, ""))
		}
	}
	if len(keep) < 4 {
		return "", fmt.Errorf("hapsim %s: expected 4 statistics lines, got %d:\n%s",
			strings.Join(args, " "), len(keep), out)
	}
	return strings.Join(keep, "\n"), nil
}

// required are the families the sharded engine promises on the exposition
// page; the sched_* gauges report the radix-heap scheduler's pending
// events and non-empty buckets.
var required = []string{
	"hap_sim_events_total",
	"hap_sim_sched_pending",
	"hap_sim_sched_buckets",
	"hap_sim_stations",
	"hap_sim_merges_total",
}

// metricsCheck runs a sharded workload long enough to outlive one scrape
// and asserts the scheduler gauges are on the exposition page.
func metricsCheck(bin string) error {
	cmd := exec.Command(bin,
		"-metrics", "127.0.0.1:0",
		"-shards", "4", "-sources", "32", "-horizon", "2e4", "-seed", "11")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	addr, err := awaitAddr(stdout)
	if err != nil {
		return err
	}
	page, err := scrape("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	var missing []string
	for _, name := range required {
		if !strings.Contains(page, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("sharded exposition missing %v\n--- page ---\n%s", missing, page)
	}
	return nil
}

// awaitAddr reads the child's stdout until the "metrics: http://ADDR/metrics"
// announcement (and keeps draining the pipe so the child never blocks).
func awaitAddr(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	addrCh := make(chan string, 1)
	go func() {
		defer close(addrCh)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "metrics: http://"); ok {
				addrCh <- strings.TrimSuffix(rest, "/metrics")
			}
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			return "", fmt.Errorf("hapsim exited without announcing a metrics address")
		}
		return addr, nil
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("timed out waiting for the metrics address announcement")
	}
}

func scrape(url string) (string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
