# Convenience targets for the progresscap repository.

GO ?= go

.PHONY: all verify fmt build vet bench-vet test test-race race stress-pubsub soak soak-short soak-backends soak-restart bench-smoke bench-ab profile experiments figures clean

# `make` with no target runs the pre-merge gate.
.DEFAULT_GOAL := verify

all: build vet test test-race soak-restart soak bench-smoke

# The one-command pre-merge gate: formatting, build, vet, the benchmark
# module's vet and tests, the full suite (without -race, so the
# simulation oracles that skip under the race detector — the
# sample-output golden, parallel determinism, macro≡fixed-tick — run),
# the full suite under the race detector, the concurrent pub/sub queue
# under repeated race runs, a short randomized scenario soak, the
# backend-hardening soak, a single pass of every micro-benchmark and a
# syntax check of the benchmark scripts, which otherwise run only by
# hand. The perf gate itself is bench-ab, too slow to ride here.
verify: fmt build vet bench-vet test test-race stress-pubsub soak-short soak-backends bench-smoke
	bash -n scripts/bench-ab.sh bench/run.sh

# Fails listing every file gofmt would change.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repository benchmark (bench/) is its own Go module, so the root
# `go build ./...` and `go vet ./...` skip it: without this step a rename
# that breaks capbench's imports passes verify and surfaces only in
# bench-ab. GOPROXY=off keeps it offline; -mod=mod resolves the module's
# replace of the root module without a go.sum.
bench-vet:
	cd bench && GOPROXY=off GOFLAGS=-mod=mod $(GO) vet ./... && GOPROXY=off GOFLAGS=-mod=mod $(GO) test ./...

test:
	$(GO) test ./...

# Full suite under the race detector (the concurrent transport, the run
# scheduler and the cluster shard pool are where races would live, but
# fault-injection tests exercise reconnect paths across the whole tree).
test-race:
	$(GO) test -race ./...

# Back-compat alias for the old target name.
race: test-race

# The transport's blocking queue, close paths and reconnects, repeated
# under the race detector: the detector sees only the interleavings a run
# happens to take, and fifty runs give a send racing a close many more.
stress-pubsub:
	$(GO) test -race -count=50 -run 'TCP|Reconnect|Subscription|Laned' ./internal/pubsub

# Property soak: generate SEEDS randomized scenario specs and run each
# under the invariant-oracle battery (budget, deadman revert, journal
# replay, engine invariants, macro≡fixed-tick, progress). Failures are
# shrunk to minimal repro specs under out/soak/, replayable with
# `go run ./cmd/experiments -spec <file>`.
SEEDS ?= 25
soak:
	$(GO) run ./cmd/soak -seeds $(SEEDS) -cachedir out/cache -cacheprune 168h

# The quick deterministic slice of the same soak that rides in `verify`.
soak-short:
	$(GO) run ./cmd/soak -seeds 12

# Backend-hardening soak: the same generated scenarios forced onto the
# sysfs actuation path (hardened actuator over the emulated powercap
# tree), plus the supervised backend-failover property test — flapping
# backends and daemon kills must never breach the budget or leave the
# register unarmed.
soak-backends:
	$(GO) run ./cmd/soak -seeds 12 -backend sysfs
	$(GO) test -run TestSupervisedBackendFailoverProperty ./internal/soak/

# Chaos-restart soak: kill the supervised policy daemon at randomized
# times and assert recovery invariants, under the race detector.
# SOAK_ITERS scales the loop (default 2 in-test; bump for longer soaks).
SOAK_ITERS ?= 4
soak-restart:
	SOAK_ITERS=$(SOAK_ITERS) $(GO) test -race -run TestChaosRestartSoak -v ./internal/experiments/

# One iteration of every micro-benchmark in bench_test.go, so the ones
# capbench cannot price do not rot between runs.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# Paired A/B run of the repository benchmark (bench/, BENCHMARK.json):
# the working tree against BASE on one workload (or, with WORKLOAD=all,
# on every declared workload in turn), PAIRS alternating pairs at the
# declared run length, seeds 1..PAIRS. Prints, per workload, each side's
# median and quartiles per end-to-end metric, the change's win count and
# whether the digests match; fails on a digest mismatch, a failed op, or
# a change median worse than the base median by more than the metric's
# BENCHMARK.json bound (row marked REGRESSED). Against the merge base on
# every workload it is the repository's perf gate. About 40 s a pair,
# so it stays out of verify.
#   make bench-ab BASE=HEAD~1 WORKLOAD=capped-node PAIRS=10
#   make bench-ab BASE=$(git merge-base HEAD main) WORKLOAD=all
WORKLOAD ?= capped-node
PAIRS ?= 10
bench-ab:
	@test -n "$(BASE)" || { echo "bench-ab: set BASE=<rev>"; exit 2; }
	bash scripts/bench-ab.sh $(BASE) $(WORKLOAD) $(PAIRS)

# CPU + heap profiles of the full experiment suite, for pprof.
# `go tool pprof out/cpu.pprof` / `go tool pprof out/mem.pprof`.
profile:
	mkdir -p out
	$(GO) run ./cmd/experiments -cpuprofile out/cpu.pprof -memprofile out/mem.pprof > /dev/null
	@echo "profiles written to out/cpu.pprof and out/mem.pprof"

# Regenerate every table and figure as text.
experiments:
	$(GO) run ./cmd/experiments

# Regenerate everything with CSV data and SVG figures under out/.
figures:
	$(GO) run ./cmd/experiments -csv out -svg out

clean:
	rm -rf out
