package multicore

import (
	"fmt"

	"repro/internal/units"
)

// Scheduler is the temperature-aware workload scheduler of the paper's
// introduction (its refs. [13], [14]): the OS-level local controller that
// migrates utilization from the hottest core toward the coolest one when
// their measured spread exceeds a threshold. It manipulates the workload
// *distribution*; the total demand is conserved.
type Scheduler struct {
	// SpreadThreshold is the measured hot-cold gap (°C) that triggers a
	// migration.
	SpreadThreshold units.Celsius
	// MigrationStep is the utilization fraction moved per decision.
	MigrationStep units.Utilization
	// Interval is the scheduler's decision period (OS-level, typically
	// a few seconds).
	Interval units.Seconds

	last    units.Seconds
	started bool
	// Migrations counts executed migrations (observability for tests).
	Migrations int
}

// NewScheduler validates and builds the scheduler.
func NewScheduler(spread units.Celsius, step units.Utilization, interval units.Seconds) (*Scheduler, error) {
	if spread <= 0 {
		return nil, fmt.Errorf("multicore: non-positive spread threshold %v", spread)
	}
	if step <= 0 || step > 1 {
		return nil, fmt.Errorf("multicore: migration step %v outside (0, 1]", step)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("multicore: non-positive interval %v", interval)
	}
	return &Scheduler{SpreadThreshold: spread, MigrationStep: step, Interval: interval}, nil
}

// DecideInto returns the new per-core utilization assignment given the
// measured per-core temperatures and the current assignment. Outside its
// decision period, or when the spread is inside the threshold, it returns
// the assignment unchanged. The result is written into dst (grown as
// needed and returned re-sliced), so a caller invoking the scheduler every
// tick reuses one scratch buffer instead of allocating per decision; dst
// must not alias assign.
func (sc *Scheduler) DecideInto(dst []units.Utilization, t units.Seconds, meas []units.Celsius, assign []units.Utilization) []units.Utilization {
	out := append(dst[:0], assign...)
	if len(meas) != len(assign) || len(out) < 2 {
		return out
	}
	if sc.started && t-sc.last < sc.Interval-1e-9 {
		return out
	}
	sc.last = t
	sc.started = true

	hot, cold := 0, 0
	for i := range meas {
		if meas[i] > meas[hot] {
			hot = i
		}
		if meas[i] < meas[cold] {
			cold = i
		}
	}
	if meas[hot]-meas[cold] < sc.SpreadThreshold {
		return out
	}
	// Move up to MigrationStep of utilization from hot to cold, bounded
	// by what the hot core has and what the cold core can absorb.
	move := sc.MigrationStep
	if out[hot] < move {
		move = out[hot]
	}
	if room := 1 - out[cold]; room < move {
		move = room
	}
	if move <= 0 {
		return out
	}
	out[hot] -= move
	out[cold] += move
	sc.Migrations++
	return out
}

// SplitEven divides a socket-level utilization evenly over n cores.
func SplitEven(total units.Utilization, n int) []units.Utilization {
	out := make([]units.Utilization, n)
	per := units.ClampUtil(total)
	for i := range out {
		out[i] = per
	}
	return out
}

// SplitSkewed puts the whole demand on as few cores as possible (bin-
// packing consolidation, the energy-favoring assignment [13] starts
// from): total*n core-units filled core by core.
func SplitSkewed(total units.Utilization, n int) []units.Utilization {
	out := make([]units.Utilization, n)
	remaining := float64(units.ClampUtil(total)) * float64(n)
	for i := 0; i < n && remaining > 0; i++ {
		u := remaining
		if u > 1 {
			u = 1
		}
		out[i] = units.Utilization(u)
		remaining -= u
	}
	return out
}
