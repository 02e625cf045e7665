#!/bin/sh
# Tier-1 CI gate: vet, build, race-enabled tests, then a one-iteration
# benchmark smoke pass so perf or allocation regressions on the hot paths
# show up in the log of every PR (the -benchtime 1x pass is about
# compiling and exercising the benchmarks, not statistics).
set -eux

# Formatting gate: gofmt owns the style; any unformatted file fails CI
# before a single test runs.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Static-analysis gate: the repo-specific analyzers (determinism,
# map-order, ambient-read, scratch-alias, hash-coverage) must be clean
# before anything heavier runs.
go run ./cmd/repolint

go vet ./...
go build ./...
go test -race ./...
go test -run xxx -bench . -benchtime 1x -benchmem .

# The benchmark under bench/ is its own module, so the root `go test
# ./...` never reaches it; its TestEngineGoldens is the check that every
# engine kind still produces bit-identical outcomes.
(cd bench && go test ./...)

# Zero-allocation contracts: the consolidated table (zeroalloc_test.go)
# is built out of the -race run by its build tag (AllocsPerRun is
# unreliable under the race detector), so assert it explicitly here.
go test -run TestZeroAllocContracts .

# Lockstep-vs-batch equivalence smoke: the lockstep engine must stay
# bit-identical to RunBatch (and the fleet fixed point to its per-pass
# rebuild reference, the coordinator to its budget/placement invariants)
# — run those suites explicitly, without the race detector, so the
# allocation bars are asserted too.
go test -run 'Lockstep|FixedPoint|BatchNetwork|Coordinat|ArbitrateRack|Migrate' ./internal/sim ./internal/fleet ./internal/thermal ./internal/coord

# Fleet-layer smoke: build and run the rack subcommand and the datacenter
# example with fixed seeds on short horizons, and fail if either produces
# no output. This gates the fleet topology layer end to end (CLI wiring,
# shared inlet field, aggregation) alongside the unit tests above.
fleet_out=$(go run ./cmd/experiments fleet -nodes 4 -seed 1 -duration 600)
test -n "$fleet_out"
echo "$fleet_out" | grep -q "rack:"

dc_out=$(go run ./examples/datacenter)
test -n "$dc_out"
echo "$dc_out" | grep -q "fleet:"
echo "$dc_out" | grep -q "coordinated:"

# Coordinator smoke: a seeded fleetcoord run on a recirculation-heavy
# rack must emit the rack summary and beat-or-tie local control's
# violation metric (the subcommand computes the verdict from the same
# outcome the table prints; the best-round fallback makes anything but
# "true" a bug).
coord_out=$(go run ./cmd/experiments fleetcoord -nodes 6 -seed 99 -duration 900 -recirc 0.03)
echo "$coord_out" | grep -q "rack summary:"
echo "$coord_out" | grep -q "verdict: coordinated beats-or-ties local violations: true"

# Scenario-store smoke: the same seeded sweep twice into a temp store.
# The first pass computes every cell; the second must be served entirely
# from the content-addressed store (all hits, zero misses) with the
# result rows bit-identical (only the cache column may differ).
store_dir=$(mktemp -d)
trap 'rm -rf "$store_dir"' EXIT
go run ./cmd/experiments sweep -ambients 30,33 -nseeds 1 -duration 300 -store "$store_dir" > "$store_dir/first.txt"
grep -q "0 hits, 2 misses" "$store_dir/first.txt"
go run ./cmd/experiments sweep -ambients 30,33 -nseeds 1 -duration 300 -store "$store_dir" > "$store_dir/second.txt"
grep -q "2 hits, 0 misses" "$store_dir/second.txt"
# (two plain substitutions — BRE alternation is GNU-only)
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$store_dir/first.txt" > "$store_dir/first.norm"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$store_dir/second.txt" > "$store_dir/second.norm"
diff "$store_dir/first.norm" "$store_dir/second.norm"

# Coordinator store smoke: the comparison sweep twice into its own store
# — the second pass must serve every coordinator cell from the store
# (all hits) with identical comparison rows, and `store ls` must list
# the cells it left behind.
coord_store=$(mktemp -d)
trap 'rm -rf "$store_dir" "$coord_store"' EXIT
go run ./cmd/experiments fleetsweep -compare -sizes 2,3 -spreads 0,6 -duration 300 -recirc 0.03 -store "$coord_store" > "$coord_store/first.txt"
grep -q "0 hits, 4 misses" "$coord_store/first.txt"
go run ./cmd/experiments fleetsweep -compare -sizes 2,3 -spreads 0,6 -duration 300 -recirc 0.03 -store "$coord_store" > "$coord_store/second.txt"
grep -q "4 hits, 0 misses" "$coord_store/second.txt"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$coord_store/first.txt" > "$coord_store/first.norm"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$coord_store/second.txt" > "$coord_store/second.norm"
diff "$coord_store/first.norm" "$coord_store/second.norm"
ls_out=$(go run ./cmd/experiments store ls -store "$coord_store")
echo "$ls_out" | grep -q "4 cell(s)"
echo "$ls_out" | grep -q "fleetcoord"

# Faultsweep store smoke: a small graceful-degradation campaign crossing
# both sensing stacks (single-chain "full" and the redundant "voting"
# array) twice into its own store. The first pass simulates every
# baseline and cell — 2 targets x 2 stacks baselines, plus
# (placement,dropout on both targets + segment on the fleetcoord target,
# which declares a bus segment) x 2 stacks = 10 cells; the second must be
# served entirely from the store — all hits, zero misses, and (the
# stronger claim, asserted via the engine tick probe) zero re-simulated
# ticks — with identical verdict tables. The dominance verdict is the
# robustness gate: voting may never degrade worse than the single chain.
fault_store=$(mktemp -d)
trap 'rm -rf "$store_dir" "$coord_store" "$fault_store"' EXIT
go run ./cmd/experiments faultsweep -targets single,fleetcoord -types placement,dropout,segment -severities 0.5 -stacks full,voting -duration 300 -store "$fault_store" > "$fault_store/first.txt"
grep -q "0 hits, 14 misses" "$fault_store/first.txt"
grep -q "verdict: voting dominates full: true" "$fault_store/first.txt"
go run ./cmd/experiments faultsweep -targets single,fleetcoord -types placement,dropout,segment -severities 0.5 -stacks full,voting -duration 300 -store "$fault_store" > "$fault_store/second.txt"
grep -q "14 hits, 0 misses" "$fault_store/second.txt"
grep -q "simulated 0 ticks" "$fault_store/second.txt"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//; s/simulated [0-9]* ticks//' "$fault_store/first.txt" > "$fault_store/first.norm"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//; s/simulated [0-9]* ticks//' "$fault_store/second.txt" > "$fault_store/second.norm"
diff "$fault_store/first.norm" "$fault_store/second.norm"

# Scenario-service smoke: build scenariod, serve on an ephemeral port,
# and drive the full client loop — submit a spec (simulated), fetch it by
# key, then re-submit and assert the daemon answered from the store with
# zero additional engine ticks (the /v1/stats sim_ticks probe is the
# ground truth — an HTTP 200 alone wouldn't prove the dedup). SIGTERM
# must produce a clean shutdown, not a killed process.
svc_dir=$(mktemp -d)
trap 'rm -rf "$store_dir" "$coord_store" "$fault_store" "$svc_dir"' EXIT
go build -o "$svc_dir/scenariod" ./cmd/scenariod
"$svc_dir/scenariod" serve -addr 127.0.0.1:0 -store "$svc_dir/cells" > "$svc_dir/serve.log" 2>&1 &
svc_pid=$!
for _ in $(seq 1 50); do
    grep -q "scenariod listening on " "$svc_dir/serve.log" && break
    sleep 0.2
done
svc_addr=$(sed -n 's/^scenariod listening on \([^ ]*\).*/\1/p' "$svc_dir/serve.log")
test -n "$svc_addr"

cat > "$svc_dir/spec.json" <<'EOF'
{
  "kind": "single",
  "name": "ci-smoke",
  "duration": 300,
  "jobs": [{
    "workload": {"name": "noisy-square", "seed": 7, "params": {"period": 300, "sigma": 0.05}},
    "policy": {"name": "full"}
  }]
}
EOF

"$svc_dir/scenariod" submit -addr "$svc_addr" -wait -spec "$svc_dir/spec.json" > "$svc_dir/first.json"
grep -q '"state": "done"' "$svc_dir/first.json"
svc_key=$(sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p' "$svc_dir/first.json" | head -n 1)
test -n "$svc_key"
"$svc_dir/scenariod" get -addr "$svc_addr" "$svc_key" > "$svc_dir/get.json"
grep -q '"state": "done"' "$svc_dir/get.json"

ticks_before=$("$svc_dir/scenariod" stats -addr "$svc_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
"$svc_dir/scenariod" submit -addr "$svc_addr" -wait -spec "$svc_dir/spec.json" > "$svc_dir/second.json"
grep -q '"cached": true' "$svc_dir/second.json"
ticks_after=$("$svc_dir/scenariod" stats -addr "$svc_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$ticks_before" = "$ticks_after"

kill -TERM "$svc_pid"
wait "$svc_pid"
grep -q "clean shutdown" "$svc_dir/serve.log"

# Two-tier smoke: a leader daemon plus a follower serving the same spec
# through `-remote`. The follower must delegate the simulation to the
# leader (its own sim_ticks stay 0), answer the resubmit from its local
# tier (leader's ticks don't move again), and — the headline guarantee —
# keep accepting submits after the leader is killed, with the degraded
# counters visible in /v1/stats.
tier_dir=$(mktemp -d)
trap 'rm -rf "$store_dir" "$coord_store" "$fault_store" "$svc_dir" "$tier_dir"' EXIT
"$svc_dir/scenariod" serve -addr 127.0.0.1:0 -store "$tier_dir/leader-cells" > "$tier_dir/leader.log" 2>&1 &
leader_pid=$!
for _ in $(seq 1 50); do
    grep -q "scenariod listening on " "$tier_dir/leader.log" && break
    sleep 0.2
done
leader_addr=$(sed -n 's/^scenariod listening on \([^ ]*\).*/\1/p' "$tier_dir/leader.log")
test -n "$leader_addr"

"$svc_dir/scenariod" serve -addr 127.0.0.1:0 -store "$tier_dir/follower-cells" \
    -remote "http://$leader_addr" -remote-timeout 2s > "$tier_dir/follower.log" 2>&1 &
follower_pid=$!
for _ in $(seq 1 50); do
    grep -q "scenariod listening on " "$tier_dir/follower.log" && break
    sleep 0.2
done
follower_addr=$(sed -n 's/^scenariod listening on \([^ ]*\).*/\1/p' "$tier_dir/follower.log")
test -n "$follower_addr"

# Submit via the follower: the leader simulates, the follower doesn't.
"$svc_dir/scenariod" submit -addr "$follower_addr" -wait -spec "$svc_dir/spec.json" > "$tier_dir/first.json"
grep -q '"state": "done"' "$tier_dir/first.json"
follower_ticks=$("$svc_dir/scenariod" stats -addr "$follower_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$follower_ticks" = "0"
leader_ticks=$("$svc_dir/scenariod" stats -addr "$leader_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$leader_ticks" != "0"

# Resubmit: the write-back made it a follower-local hit; the leader's
# tick probe must not move again.
"$svc_dir/scenariod" submit -addr "$follower_addr" -wait -spec "$svc_dir/spec.json" > "$tier_dir/second.json"
grep -q '"cached": true' "$tier_dir/second.json"
leader_ticks2=$("$svc_dir/scenariod" stats -addr "$leader_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$leader_ticks" = "$leader_ticks2"
"$svc_dir/scenariod" stats -addr "$follower_addr" | grep -q '"remote_hits": 1'

# Kill the leader: the follower must still serve submits — a new spec is
# simulated locally, and the degraded counters show the breaker at work.
kill -TERM "$leader_pid"
wait "$leader_pid"
sed 's/"ci-smoke"/"ci-smoke-degraded"/' "$svc_dir/spec.json" > "$tier_dir/spec2.json"
"$svc_dir/scenariod" submit -addr "$follower_addr" -wait -spec "$tier_dir/spec2.json" > "$tier_dir/degraded.json"
grep -q '"state": "done"' "$tier_dir/degraded.json"
"$svc_dir/scenariod" stats -addr "$follower_addr" > "$tier_dir/stats.json"
grep -q '"remote_errors": [1-9]' "$tier_dir/stats.json"

kill -TERM "$follower_pid"
wait "$follower_pid"
grep -q "clean shutdown" "$tier_dir/follower.log"

# Perf-trajectory gate: fresh trajectory numbers against the committed
# baseline via benchjson -compare (the gate ratchets: each PR appends
# BENCH_PR<n>.json and the next gates against it). The Makefile's
# bench-compare target holds the one copy of the benchmark pattern and
# the baseline file. The threshold is deliberately wide (60%): this 1-core shared container
# drifts 15-35% between sessions on bit-identical hot paths (measured
# PR3 -> PR4), so a tight gate would be noise; the wide one still
# catches real blowups, and allocs/op regressions — which are
# deterministic — are judged by the same factor against integer counts,
# so any alloc creep on a 0-alloc path fails regardless.
make bench-compare BENCH_COMPARE_TIME=0.5s BENCH_THRESHOLD=0.60
