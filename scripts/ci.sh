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
# map-order, ambient-read, scratch-alias, hash-coverage, test-only code)
# must be clean before anything heavier runs.
go run ./cmd/repolint

go vet ./...
go build ./...
go test -race ./...
go test -run xxx -bench . -benchtime 1x -benchmem .

# The benchmark under bench/ is its own module, so the root `go vet
# ./...` and `go test ./...` never reach it (and `go test` runs only a
# small default set of vet checks); vet it in full here. Its
# TestEngineGoldens is the check that every engine kind still produces
# bit-identical outcomes.
(cd bench && go vet ./... && go test ./...)

# Zero-allocation contracts: the consolidated table (zeroalloc_test.go)
# is built out of the -race run by its build tag (AllocsPerRun is
# unreliable under the race detector), so assert it explicitly here.
go test -run TestZeroAllocContracts .

# Hot-path codegen guard: the compiler's own listings show that the
# per-tick code keeps the shape that makes it cheap. TickInto writes its
# result field by field, with no block copy or zeroing through
# runtime.duffcopy/duffzero; units.Clamp inlines, because its panic
# message is formatted out of line; and the rings of the moving average,
# the single-step scaler and the sensor delay line wrap their indices
# without an integer divide (IDIVQ). asm prints one function's -S text.
asm() { # asm <package> <method>
    go build -gcflags=-S "./internal/$1" 2>&1 |
        awk -v f=".$2 STEXT" '/^[^ \t]/ { on = index($0, f) > 0 } on'
}
tick_asm=$(asm sim '(*PhysicalServer).TickInto')
test -n "$tick_asm"
if echo "$tick_asm" | grep -q 'runtime\.duff'; then
    echo "codegen: (*PhysicalServer).TickInto calls runtime.duffcopy or runtime.duffzero" >&2
    exit 1
fi
go build -gcflags=-m ./internal/units 2>&1 | grep -q ': can inline Clamp$'
for ring in 'filter:(*MovingAverage).Update' 'coord:(*SingleStepScaler).Observe' 'sensor:(*DelayLine).Sample'; do
    ring_asm=$(asm "${ring%%:*}" "${ring#*:}")
    test -n "$ring_asm"
    if echo "$ring_asm" | grep -q IDIVQ; then
        echo "codegen: $ring divides to wrap its ring index" >&2
        exit 1
    fi
done

# Submit-path fuzz smoke: a short native fuzz run over spec decode,
# Validate and Key (plain `go test` above only replays the seeds and
# any committed testdata/fuzz inputs). Bounded so CI time stays flat.
go test -run '^$' -fuzz '^FuzzSpecKey$' -fuzztime 15s ./internal/scenario

# Outcome round-trip fuzz smoke: bytes that strictly decode as an Outcome
# must re-encode to the same bytes. Its seeds run to a few KiB, and the
# default 60 s minimization of each new input would spend the whole run
# minimizing, so minimization is capped at 1 s.
go test -run '^$' -fuzz '^FuzzOutcomeRoundTrip$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario

# Push-verb fuzz smoke: PUT /v1/scenarios/{key} bodies through the
# daemon's route table answer 200 or 400 (invalid_spec), and an accepted
# push is served back as pushed. Its real-cell seed is a few KiB, so
# minimization is capped at 1 s like the outcome round trip's.
go test -run '^$' -fuzz '^FuzzPush$' -fuzztime 10s -fuzzminimizetime 1s ./internal/service

# Submit-body fuzz smoke: POST /v1/scenarios bodies through the same two
# daemons' route tables answer exactly as decoding, validating, hashing
# and looking the key up would (status, code and reply bytes), though a
# stored spec's canonical body is answered from its cell without a
# decode, and a cell whose stored spec this code refuses or keys
# elsewhere is never answered, on either path. Minimization is capped at
# 1 s, as the push fuzz's is.
go test -run '^$' -fuzz '^FuzzSubmitBody$' -fuzztime 10s -fuzzminimizetime 1s ./internal/service

# Redundant-voter fuzz smoke: arbitrary replica readings, NaN and
# infinities included, must fuse to a finite value, and health must track
# the quorum (FailSafe once consecutive failures outlast the hold budget).
go test -run '^$' -fuzz '^FuzzRedundant$' -fuzztime 10s ./internal/sensor

# Parallel-path race smoke: only passes of eight or more stepped lanes
# split over workers, so the worker-count identity tests are the few that
# reach the sharded schedule; repeat them under the race detector.
go test -race -count=5 -run 'TestLockstepMatchesRunBatch|TestLockstepStepsLaneMajor|TestLockstepWorkersTakeOverStalledShard|TestLockstepRepanicsWorkerPanic|TestRunParallelMatchesSerial|TestCoordinatedDeterministicAcrossWorkers' ./internal/sim ./internal/fleet

# Service race smoke: the storage, queue, outcome-cache and tier tests
# run goroutines over shared state (parked fetches and jobs, coalesced
# submits, a leader that dies or stalls mid-run); repeat them under the
# race detector.
go test -race -count=5 -run 'Concurrent|Parked|Singleflight|Recheck|Cache|TwoTier|LeaderDies|SlowLeader' ./internal/service

# Lockstep equivalence smoke: the lockstep engine matches running each
# job alone through sim.Run bit for bit because both step the same lane
# code. These suites check the paths only the engine takes against
# sim.Run: compiled and shared schedules, sharding across workers, lane
# masks and warm re-steps (and the fleet fixed point against its per-pass
# rebuild reference, the coordinator against its per-round rebuild
# reference and budget/placement invariants). They run without the race
# detector, so the allocation bars are asserted too.
go test -run 'Lockstep|FixedPoint|Coordinat|ArbitrateRack|Migrate' ./internal/sim ./internal/fleet ./internal/coord

# Spec-file smokes: the rack specs under specs/ run in process through
# `scenariod run` on fixed seeds and short horizons. Each must finish
# done and carry its rack aggregates: the fleet rack its peak rack
# power, the coordinated datacenter and fleetcoord racks their local
# baseline and winning round. This gates the fleet layer end to end
# (spec decode, shared inlet field, coordinator, aggregation) alongside
# the unit tests above; TestFleetCoordSpecVerdict (cmd/scenariod)
# asserts the coordinator's verdict on the fleetcoord rack. Every paper
# run (table3, fig1, fig3-5 and faults) is a file under specs/ as well,
# and TestRunMatchesSubmit, in the test pass above, pins the bytes
# `scenariod run` prints for every file there.
fleet_out=$(go run ./cmd/scenariod run -spec specs/fleet.json)
echo "$fleet_out" | grep -q '"state": "done"'
echo "$fleet_out" | grep -q '"peak_rack_power_w"'

dc_out=$(go run ./cmd/scenariod run -spec specs/datacenter.json)
echo "$dc_out" | grep -q '"state": "done"'
echo "$dc_out" | grep -q '"local_violation_frac"'
echo "$dc_out" | grep -q '"coord_best_round"'

coord_out=$(go run ./cmd/scenariod run -spec specs/fleetcoord.json)
echo "$coord_out" | grep -q '"state": "done"'
echo "$coord_out" | grep -q '"local_violation_frac"'
echo "$coord_out" | grep -q '"coord_best_round"'

# Scenario-store smoke: the same grid file (specs/grids/) twice into a
# temp store. The first pass computes every cell; the second must be
# served entirely from the content-addressed store (all hits, zero
# misses) with the result rows bit-identical (only the cache column may
# differ).
store_dir=$(mktemp -d)
trap 'rm -rf "$store_dir"' EXIT
go run ./cmd/experiments sweep -grid specs/grids/ci-sweep.json -store "$store_dir" > "$store_dir/first.txt"
grep -q "0 hits, 2 misses" "$store_dir/first.txt"
go run ./cmd/experiments sweep -grid specs/grids/ci-sweep.json -store "$store_dir" > "$store_dir/second.txt"
grep -q "2 hits, 0 misses" "$store_dir/second.txt"
# (two plain substitutions — BRE alternation is GNU-only)
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$store_dir/first.txt" > "$store_dir/first.norm"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$store_dir/second.txt" > "$store_dir/second.norm"
diff "$store_dir/first.norm" "$store_dir/second.norm"

# Coordinator store smoke: the comparison grid (a grid of fleetcoord
# cells) twice into its own store — the second pass must serve every
# coordinator cell from the store (all hits) with identical comparison
# rows, and `store ls` must list the cells it left behind.
coord_store=$(mktemp -d)
trap 'rm -rf "$store_dir" "$coord_store"' EXIT
go run ./cmd/experiments sweep -grid specs/grids/ci-fleetcoord.json -store "$coord_store" > "$coord_store/first.txt"
grep -q "0 hits, 4 misses" "$coord_store/first.txt"
go run ./cmd/experiments sweep -grid specs/grids/ci-fleetcoord.json -store "$coord_store" > "$coord_store/second.txt"
grep -q "4 hits, 0 misses" "$coord_store/second.txt"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$coord_store/first.txt" > "$coord_store/first.norm"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$coord_store/second.txt" > "$coord_store/second.norm"
diff "$coord_store/first.norm" "$coord_store/second.norm"
ls_out=$(go run ./cmd/experiments store ls -store "$coord_store")
echo "$ls_out" | grep -q "4 cell(s)"
echo "$ls_out" | grep -q "fleetcoord"
# Offline eviction smoke: `store gc` is the one eviction path (scenariod
# keeps no cache caps). Trimming the store to two cells evicts the two
# oldest; the same sweep then serves the survivors from the store and
# recomputes the evicted pair into identical rows.
gc_out=$(go run ./cmd/experiments store gc -maxcells 2 -store "$coord_store")
echo "$gc_out" | grep -q "evicted 2 cell(s)"
echo "$gc_out" | grep -q "; 2 cell(s) / [0-9]* bytes remain"
go run ./cmd/experiments sweep -grid specs/grids/ci-fleetcoord.json -store "$coord_store" > "$coord_store/third.txt"
grep -q "2 hits, 2 misses" "$coord_store/third.txt"
sed 's/ *hit$//; s/ *miss$//; s/[0-9]* hits, [0-9]* misses//' "$coord_store/third.txt" > "$coord_store/third.norm"
diff "$coord_store/first.norm" "$coord_store/third.norm"

# Faultsweep store smoke: a small graceful-degradation campaign file
# (specs/campaigns/) crossing both sensing stacks (single-chain "full"
# and the redundant "voting" array) twice into its own store. The first
# pass simulates every baseline and cell — 2 targets x 2 stacks
# baselines, plus (placement,dropout on both targets + segment on the
# fleetcoord target, which declares a bus segment) x 2 stacks = 10
# cells; the second must be served entirely from the store — all hits,
# zero misses, and (the stronger claim, asserted via the engine tick
# probe) zero re-simulated ticks — with identical verdict tables. The
# dominance verdict is the robustness gate: voting may never degrade
# worse than the single chain.
fault_store=$(mktemp -d)
trap 'rm -rf "$store_dir" "$coord_store" "$fault_store"' EXIT
go run ./cmd/experiments faultsweep -campaign specs/campaigns/ci-faults.json -store "$fault_store" > "$fault_store/first.txt"
grep -q "0 hits, 14 misses" "$fault_store/first.txt"
grep -q "verdict: voting dominates full: true" "$fault_store/first.txt"
go run ./cmd/experiments faultsweep -campaign specs/campaigns/ci-faults.json -store "$fault_store" > "$fault_store/second.txt"
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

"$svc_dir/scenariod" submit -addr "$svc_addr" -wait -spec specs/ci-smoke.json > "$svc_dir/first.json"
grep -q '"state": "done"' "$svc_dir/first.json"
svc_key=$(sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p' "$svc_dir/first.json" | head -n 1)
test -n "$svc_key"
"$svc_dir/scenariod" get -addr "$svc_addr" "$svc_key" > "$svc_dir/get.json"
grep -q '"state": "done"' "$svc_dir/get.json"

# The Fig. 1 telemetry probe is a kind of the closed vocabulary, so the
# daemon simulates it like any other spec.
"$svc_dir/scenariod" submit -addr "$svc_addr" -wait -spec specs/fig1.json > "$svc_dir/fig1.out"
grep -q '"state": "done"' "$svc_dir/fig1.out"

# A param its workload never reads is refused as invalid_spec, not run
# with the defaults and stored under a new key; `run` refuses it too.
sed 's/"period"/"perod"/' specs/ci-smoke.json > "$svc_dir/typo.json"
if "$svc_dir/scenariod" submit -addr "$svc_addr" -spec "$svc_dir/typo.json" > "$svc_dir/typo.out" 2>&1; then
    echo "scenariod accepted a spec with a typo'd param" >&2
    exit 1
fi
grep -q "invalid_spec" "$svc_dir/typo.out"
if "$svc_dir/scenariod" run -spec "$svc_dir/typo.json" > "$svc_dir/typo-run.out" 2>&1; then
    echo "scenariod run accepted a spec with a typo'd param" >&2
    exit 1
fi
grep -q 'unknown param "perod"' "$svc_dir/typo-run.out"
# A spec path given without -spec is a stray argument: refused by name,
# not ignored while run decodes stdin in its place.
if "$svc_dir/scenariod" run specs/ci-smoke.json < /dev/null > "$svc_dir/stray-run.out" 2>&1; then
    echo "scenariod run accepted a stray argument" >&2
    exit 1
fi
grep -q 'stray argument "specs/ci-smoke.json"' "$svc_dir/stray-run.out"
# A negative or zero coordinator budget is the client's error too:
# refused as invalid_spec before it is queued, not stored as a failed run
# that every resubmit runs again (negative) or as an absent budget's
# outcome under another key (zero); `run` refuses it by the param's name.
for budget in -5 0; do
    sed "/\"name\": \"fleetcoord\",/a\\  \"params\": {\"power_budget_w\": $budget}," specs/fleetcoord.json > "$svc_dir/budget$budget.json"
    grep -q "\"power_budget_w\": $budget}" "$svc_dir/budget$budget.json"
    if "$svc_dir/scenariod" submit -addr "$svc_addr" -spec "$svc_dir/budget$budget.json" > "$svc_dir/budget$budget.out" 2>&1; then
        echo "scenariod accepted a coordinator budget of $budget" >&2
        exit 1
    fi
    grep -q "invalid_spec" "$svc_dir/budget$budget.out"
    if "$svc_dir/scenariod" run -spec "$svc_dir/budget$budget.json" > "$svc_dir/budget$budget-run.out" 2>&1; then
        echo "scenariod run accepted a coordinator budget of $budget" >&2
        exit 1
    fi
    grep -q "power_budget_w" "$svc_dir/budget$budget-run.out"
done

ticks_before=$("$svc_dir/scenariod" stats -addr "$svc_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
"$svc_dir/scenariod" submit -addr "$svc_addr" -wait -spec specs/ci-smoke.json > "$svc_dir/second.json"
grep -q '"cached": true' "$svc_dir/second.json"
ticks_after=$("$svc_dir/scenariod" stats -addr "$svc_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$ticks_before" = "$ticks_after"

kill -TERM "$svc_pid"
wait "$svc_pid"
grep -q "clean shutdown" "$svc_dir/serve.log"

# A key answers only with the outcome of the spec that hashes to it: with
# fig1's cell copied over ci-smoke's key, a daemon restarted on the same
# store answers a GET of that key not_found, and a submit of ci-smoke
# simulates it afresh instead of serving fig1's outcome as a hit. That
# run's Put repairs the key, so a GET then answers done.
fig1_key=$(sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p' "$svc_dir/fig1.out" | head -n 1)
test -n "$fig1_key"
cp "$svc_dir/cells/$fig1_key.json" "$svc_dir/cells/$svc_key.json"
"$svc_dir/scenariod" serve -addr 127.0.0.1:0 -store "$svc_dir/cells" > "$svc_dir/misfiled.log" 2>&1 &
svc_pid=$!
for _ in $(seq 1 50); do
    grep -q "scenariod listening on " "$svc_dir/misfiled.log" && break
    sleep 0.2
done
svc_addr=$(sed -n 's/^scenariod listening on \([^ ]*\).*/\1/p' "$svc_dir/misfiled.log")
test -n "$svc_addr"
if "$svc_dir/scenariod" get -addr "$svc_addr" "$svc_key" > "$svc_dir/misfiled-get.out" 2>&1; then
    echo "scenariod served a cell filed under another spec's key" >&2
    exit 1
fi
grep -q "not_found" "$svc_dir/misfiled-get.out"
"$svc_dir/scenariod" submit -addr "$svc_addr" -wait -spec specs/ci-smoke.json > "$svc_dir/misfiled.json"
grep -q '"state": "done"' "$svc_dir/misfiled.json"
grep -q '"kind": "single"' "$svc_dir/misfiled.json"
if grep -q '"cached": true' "$svc_dir/misfiled.json"; then
    echo "scenariod answered ci-smoke from a misfiled cell" >&2
    exit 1
fi
"$svc_dir/scenariod" get -addr "$svc_addr" "$svc_key" > "$svc_dir/repaired.json"
grep -q '"state": "done"' "$svc_dir/repaired.json"
kill -TERM "$svc_pid"
wait "$svc_pid"
grep -q "clean shutdown" "$svc_dir/misfiled.log"

# In-memory daemon smoke: without -store the daemon holds its cells in
# memory, as the outcome bytes its replies splice in. The second submit
# of the same spec must be answered from them ("cached": true) with the
# outcome the first submit carried: the two replies differ only in the
# cached line. `run` simulates a spec in process and must print exactly
# what the fresh daemon's first `submit -wait` printed, for both files.
"$svc_dir/scenariod" serve -addr 127.0.0.1:0 > "$svc_dir/mem.log" 2>&1 &
mem_pid=$!
for _ in $(seq 1 50); do
    grep -q "scenariod listening on " "$svc_dir/mem.log" && break
    sleep 0.2
done
mem_addr=$(sed -n 's/^scenariod listening on \([^ ]*\).*/\1/p' "$svc_dir/mem.log")
test -n "$mem_addr"
"$svc_dir/scenariod" submit -addr "$mem_addr" -wait -spec specs/ci-smoke.json > "$svc_dir/mem-first.json"
"$svc_dir/scenariod" submit -addr "$mem_addr" -wait -spec specs/ci-smoke.json > "$svc_dir/mem-second.json"
grep -q '"cached": true' "$svc_dir/mem-second.json"
grep -v '"cached": true' "$svc_dir/mem-second.json" | diff "$svc_dir/mem-first.json" -
"$svc_dir/scenariod" submit -addr "$mem_addr" -wait -spec specs/fig1.json > "$svc_dir/mem-fig1.json"
"$svc_dir/scenariod" run -spec specs/ci-smoke.json > "$svc_dir/run-first.json"
diff "$svc_dir/mem-first.json" "$svc_dir/run-first.json"
"$svc_dir/scenariod" run -spec specs/fig1.json > "$svc_dir/run-fig1.json"
diff "$svc_dir/mem-fig1.json" "$svc_dir/run-fig1.json"
kill -TERM "$mem_pid"
wait "$mem_pid"
grep -q "clean shutdown" "$svc_dir/mem.log"

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
"$svc_dir/scenariod" submit -addr "$follower_addr" -wait -spec specs/ci-smoke.json > "$tier_dir/first.json"
grep -q '"state": "done"' "$tier_dir/first.json"
follower_ticks=$("$svc_dir/scenariod" stats -addr "$follower_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$follower_ticks" = "0"
leader_ticks=$("$svc_dir/scenariod" stats -addr "$leader_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$leader_ticks" != "0"

# Resubmit: the write-back made it a follower-local hit; the leader's
# tick probe must not move again.
"$svc_dir/scenariod" submit -addr "$follower_addr" -wait -spec specs/ci-smoke.json > "$tier_dir/second.json"
grep -q '"cached": true' "$tier_dir/second.json"
leader_ticks2=$("$svc_dir/scenariod" stats -addr "$leader_addr" | sed -n 's/.*"sim_ticks": \([0-9]*\).*/\1/p')
test "$leader_ticks" = "$leader_ticks2"
"$svc_dir/scenariod" stats -addr "$follower_addr" | grep -q '"remote_hits": 1'

# Kill the leader: the follower must still serve submits — a new spec is
# simulated locally, and the degraded counters show the breaker at work.
kill -TERM "$leader_pid"
wait "$leader_pid"
sed 's/"ci-smoke"/"ci-smoke-degraded"/' specs/ci-smoke.json > "$tier_dir/spec2.json"
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
# the baseline file. The threshold is deliberately wide (60%): a shared
# host drifts 15-35% between sessions on bit-identical hot paths
# (measured PR3 -> PR4), so a tight gate would be noise; the wide one still
# catches real blowups, and allocs/op regressions — which are
# deterministic — are judged by the same factor against integer counts,
# so any alloc creep on a 0-alloc path fails regardless.
make bench-compare BENCH_COMPARE_TIME=0.5s BENCH_THRESHOLD=0.60
