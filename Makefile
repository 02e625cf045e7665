# Development and CI entry points. `make ci` is the tier-1 gate every PR
# must keep green; `make bench-smoke` is a one-iteration pass over the
# perf-critical benchmarks so hot-path regressions (time or allocations)
# are visible in CI logs, and `make bench` produces real numbers.

GO ?= go

.PHONY: all build vet test race lint bench bench-smoke bench-json bench-compare ci

# Benchmarks recorded into the machine-readable perf trajectory
# (BENCH_*.json via `make bench-json`); keep the hot-path and engine
# comparison benchmarks here so every PR's baseline is diffable.
# BenchmarkLockstepVsBatch/lockstep-workers=0 is the one entry whose
# passes split over more than one engine worker (a pass takes one worker
# per four stepped lanes, so BenchmarkFleetRun/workers=0's five-lane
# passes stay on one goroutine), so a multi-worker slowdown shows up here
# too.
BENCH_JSON_PATTERN = 'BenchmarkNetworkStep$$|BenchmarkServerTick|BenchmarkFaultChain|BenchmarkVotingChain|BenchmarkEngineThroughput|BenchmarkMulticoreTick|BenchmarkTable3Serial|BenchmarkLockstepVsBatch|BenchmarkFleetFixedPoint|BenchmarkFleetCoordinator|BenchmarkFleetRun|BenchmarkScenarioStoreHit|BenchmarkScenarioRerun|BenchmarkServiceStoreHit|BenchmarkRemoteBackendHit|BenchmarkStoragePut$$|BenchmarkStorageGetParallel'
BENCH_OUT ?= BENCH_PR36.json

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repo-specific static analysis (internal/lint): determinism, map-order,
# ambient-read, scratch-alias, hash-coverage and test-only-code contracts.
# Exits non-zero on any finding; suppress individual lines with
# `//lint:ignore <analyzer> <reason>`.
lint:
	$(GO) run ./cmd/repolint

# Hot-path micro-benchmarks with allocation reporting: NetworkStep,
# ServerTick and MulticoreTick must stay at 0 allocs/op; Table3Serial
# times the Table III batch end to end.
bench:
	$(GO) test -run xxx -bench 'BenchmarkNetworkStep|BenchmarkServerTick|BenchmarkMulticoreTick|BenchmarkMulticoreRunHour|BenchmarkEngineThroughput|BenchmarkTable3Serial|BenchmarkFleet' -benchmem .

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# Machine-readable perf baseline: run the trajectory benchmarks and write
# ns/op, allocs/op and custom metrics (ticks/s) to $(BENCH_OUT). The
# intermediate file (not a pipe) makes a failing benchmark run fail the
# target instead of silently committing a partial baseline.
bench-json:
	$(GO) test -run xxx -bench $(BENCH_JSON_PATTERN) -benchtime 2s -benchmem . > bench.out
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) < bench.out
	@rm -f bench.out

# Diff fresh trajectory numbers against a committed baseline; fails on a
# >BENCH_THRESHOLD regression in time or allocations per benchmark.
# scripts/ci.sh runs this target, so the pattern and baseline live here
# only.
BENCH_BASELINE ?= BENCH_PR33.json
BENCH_THRESHOLD ?= 0.15
BENCH_COMPARE_TIME ?= 1s
bench-compare:
	$(GO) test -run xxx -bench $(BENCH_JSON_PATTERN) -benchtime $(BENCH_COMPARE_TIME) -benchmem . > bench.out
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -threshold $(BENCH_THRESHOLD) < bench.out
	@rm -f bench.out

ci:
	./scripts/ci.sh
