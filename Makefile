GO ?= go

.PHONY: all build test ci fmt vet race race-all bench-smoke bench bench-gate baseline metrics-smoke fit-smoke shard-smoke ctrl-smoke net-smoke cli-smoke hapbench hapbench-test

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ci is the merge gate: formatting, vet, the race detector over the
# concurrency-bearing packages, a one-iteration benchmark smoke test, the
# six smoke rows (metrics, multi-shard determinism, generate→fit,
# control plane, queueing networks, the binaries' shared runner), the
# benchmark-of-record module's vet and tests, and the benchmark sweep
# with its gate (fresh capture vs the newest committed BENCH_pr<N>.json).
ci: fmt vet race bench-smoke metrics-smoke shard-smoke fit-smoke ctrl-smoke net-smoke cli-smoke hapbench-test bench

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also cross-compiles for arm64, so the portable path beside linalg's
# amd64 assembly keeps building (vet needs no arm64 toolchain or network).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

race:
	$(GO) test -race ./internal/par ./internal/sim ./internal/obs ./internal/ctrl ./internal/netgen ./internal/net ./internal/cli

# race-all runs the whole module under the race detector (the CI race job);
# -short skips the wall-clock-sensitive netgen delivery assertions, and the
# raised -timeout absorbs the detector's ~15x slowdown on the solver suite
# (which busts go test's default 10 minute per-package budget).
race-all:
	$(GO) test -race -short -timeout 40m ./...

# The six smokes are rows of one harness, scripts/smoke: each target
# builds the cmd/ binaries its row drives into a temporary directory,
# runs them end to end and prints "<row>-smoke: ok".
# `go run ./scripts/smoke` with no row runs all six.

# metrics-smoke boots cmd/hapsim with -metrics on an ephemeral port,
# scrapes the exposition once, and asserts the required families are there.
metrics-smoke:
	$(GO) run ./scripts/smoke metrics

# shard-smoke asserts the sharded engine's two CI properties on
# cmd/hapsim: -shards 1 and -shards 4 print bit-identical statistics, and
# a sharded run under -metrics exposes the scheduler gauges.
shard-smoke:
	$(GO) run ./scripts/smoke shard

# fit-smoke runs the generate→fit pipeline end to end: hapgen exports a
# ~10k-arrival Poisson trace, hapfit fits it, and the gate asserts the
# selector names "poisson" at the generator's rate.
fit-smoke:
	$(GO) run ./scripts/smoke fit

# ctrl-smoke boots cmd/hapd with 3 ephemeral streams on a 2-worker fit
# pool, feeds each a UDP burst, waits for every per-stream decision and
# the aggregate decision over all 3 on the API, checks each decision
# history and the hap_ctrl_* metric families, and asserts SIGTERM drains
# to exit 0.
ctrl-smoke:
	$(GO) run ./scripts/smoke ctrl

# net-smoke asserts the queueing-network layer's CI properties on
# cmd/hapnet: a Poisson tandem delivers end to end with packet
# conservation, a replicated fan-in prints bit-identical statistics at
# -parallel 1 and -parallel 4, and a run under -metrics exposes the
# hap_net_* families with nonzero forwarded/delivered counters.
net-smoke:
	$(GO) run ./scripts/smoke net

# cli-smoke asserts the runner every cmd/ binary shares: each of the
# seven reports one bad flag value as a usage error (exit 2, one stderr
# line, no panic), and hapsim and experiments runs that -timeout cuts
# short exit 5 and leave CPU and heap profiles that go tool pprof reads.
cli-smoke:
	$(GO) run ./scripts/smoke cli

# bench-smoke compiles and runs one iteration of the simulator benchmark
# and of the layer benchmarks: the scheduler's hold model at one source's
# and 128 sources' pending sizes, the 441×441 linalg kernels (GFLOP/s),
# the exact P0 queue solve they serve (s/op, log-reduction iterations)
# and the P0 modulator's stationary solve (states/s).
bench-smoke:
	$(GO) test -bench=SimulatorHAP -benchtime=1x -run '^$$' .
	$(GO) test -bench=SchedHold -benchtime=1x -run '^$$' ./internal/sim
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./internal/linalg ./internal/solver ./internal/markov

# hapbench runs one workload of the benchmark of record (hapbench/NOTES.md)
# through hapbench/run.sh, which builds hapbench and hapd into
# .bench_build/. Pick the run with HAPBENCH_ARGS, e.g.
#   make hapbench HAPBENCH_ARGS='--workload mux-128 --seed 7919 --seconds 35 --trace 1'
HAPBENCH_ARGS ?= --workload p0-offline --seed 1 --seconds 35 --trace 0
hapbench:
	bash hapbench/run.sh $(HAPBENCH_ARGS)

# hapbench-test vets and tests the hapbench module, including its dry run
# of every workload. hapbench is a nested module that imports internal
# packages, so the root module's vet and test never build it; this keeps
# an internal API change from breaking the benchmark of record unseen.
hapbench-test:
	cd hapbench && $(GO) vet ./... && $(GO) test ./...

# bench captures a fresh full benchmark sweep into
# .bench_build/BENCH_current.json (gitignored; same go-test-json schema as
# BENCH_baseline.json) and runs the gate: allocs/op against the committed
# baseline, plus the trajectory (allocs/op, events/s and arrivals/s)
# against the newest committed BENCH_pr<N>.json. To commit a new
# reference, copy the capture to BENCH_pr<N>.json. See scripts/benchgate
# for the tolerance calibration.
bench:
	mkdir -p .bench_build
	$(GO) test -bench . -benchtime=1x -run '^$$' -json . > .bench_build/BENCH_current.json
	$(GO) run ./scripts/benchgate

bench-gate:
	$(GO) run ./scripts/benchgate

# baseline regenerates BENCH_baseline.json (one iteration per benchmark —
# a reference shape, not a statistically stable measurement).
baseline:
	$(GO) test -bench . -benchtime=1x -run '^$$' -json . > BENCH_baseline.json
