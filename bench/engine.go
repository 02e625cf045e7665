package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// The engine workload: scenario.Run in this process, two engine workers,
// round-robin over five kinds of run with a fresh seed every repetition.
// HTTP and storage do nothing here; the tick, lockstep cohorts, fleet
// relaxation passes and coordinator rounds do all the work.

// engineKinds names the round-robin's kinds, in order.
var engineKinds = []string{"single", "batch", "fleet", "fleetcoord", "voting"}

// engineWorkers is the engine parallelism of every run (the host has two
// cores).
const engineWorkers = 2

// engineSpec is repetition r of the round-robin.
func engineSpec(seed int64, r int) (scenario.Spec, error) {
	name := fmt.Sprintf("engine-s%d-r%06d", seed, r)
	s := stats.SubSeed(seed, int64(r))
	switch engineKinds[r%len(engineKinds)] {
	case "single":
		return singleSpec(name, s, 3600), nil
	case "batch":
		return batchSpec(name, s, 3600), nil
	case "fleet":
		return fleetSpec(name, s, 8, 900, 0.01), nil
	case "fleetcoord":
		return fleetCoordSpec(name, s), nil
	default:
		return votingSpec(name, s)
	}
}

// engineGoldenJSON holds the outcome hashes of the first round (one run
// of each kind) for the seeds claims are made on.
//
//go:embed testdata/engine_golden.json
var engineGoldenJSON []byte

// goldens maps a seed to its first round's outcome hashes, hex-encoded.
type goldens map[string][]string

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(engineGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding engine goldens: %w", err)
	}
	return g, nil
}

// firstRound runs repetitions 0..4 at the given engine worker count and
// returns the specs, outcomes and outcome hashes.
func firstRound(seed int64, workers int) ([]cell, []string, error) {
	cells := make([]cell, len(engineKinds))
	hashes := make([]string, len(engineKinds))
	for r := range engineKinds {
		spec, err := engineSpec(seed, r)
		if err != nil {
			return nil, nil, err
		}
		spec.Workers = workers
		out, err := scenario.Run(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s run: %w", engineKinds[r], err)
		}
		h, err := outcomeHash(out)
		if err != nil {
			return nil, nil, err
		}
		cells[r] = cell{spec: spec, out: out}
		hashes[r] = hex.EncodeToString(h[:])
	}
	return cells, hashes, nil
}

// checkFirstRound compares the first round's hashes with the goldens of
// the seed, or — for a seed without goldens — with a one-worker rerun,
// since outcomes must be bit-identical at any worker count.
func checkFirstRound(seed int64, hashes []string, g goldens) []string {
	want, ok := g[fmt.Sprint(seed)]
	source := "golden"
	if !ok {
		_, rerun, err := firstRound(seed, 1)
		if err != nil {
			return []string{fmt.Sprintf("one-worker rerun: %v", err)}
		}
		want, source = rerun, "one-worker rerun"
	}
	if len(want) != len(hashes) {
		return []string{fmt.Sprintf("%s has %d hashes for %d kinds", source, len(want), len(hashes))}
	}
	var fails []string
	for i := range hashes {
		if hashes[i] != want[i] {
			fails = append(fails, fmt.Sprintf("%s outcome hash %s differs from the %s %s", engineKinds[i], hashes[i], source, want[i]))
		}
	}
	return fails
}

// engineTarget runs the round-robin from one goroutine.
type engineTarget struct {
	seed    int64
	goldens goldens
	first   []cell
	hashes  []string
	tr      *tracer
}

// setupEngine runs the first round (each kind once, warming the engine's
// lazily built state) and hands the round-robin on from repetition 5.
func setupEngine(cfg *config, _ string, tr *tracer) (target, error) {
	g := cfg.goldens
	if g == nil {
		var err error
		if g, err = loadGoldens(); err != nil {
			return nil, err
		}
	}
	first, hashes, err := firstRound(cfg.seed, engineWorkers)
	if err != nil {
		return nil, err
	}
	return &engineTarget{seed: cfg.seed, goldens: g, first: first, hashes: hashes, tr: tr}, nil
}

func (e *engineTarget) numClients() int { return 1 }

func (e *engineTarget) op(_, seq int) (time.Duration, bool, error) {
	r := seq + len(engineKinds)
	spec, err := engineSpec(e.seed, r)
	if err != nil {
		return 0, true, err
	}
	spec.Workers = engineWorkers
	start := time.Now()
	_, err = scenario.Run(spec)
	end := time.Now()
	e.tr.record(spanRun+engineKinds[r%len(engineKinds)], "", start, end)
	return end.Sub(start), true, err
}

func (e *engineTarget) check() []string { return checkFirstRound(e.seed, e.hashes, e.goldens) }

// layers reports the service counters as zero: the engine workload runs
// no daemon.
func (e *engineTarget) layers(m map[string]float64) { counterMetrics(m, counters{}, counters{}) }

func (e *engineTarget) sample() []cell { return e.first }

func (e *engineTarget) stop() error { return nil }
