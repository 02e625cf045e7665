package fleet

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/units"
)

// SweepConfig spans a grid of rack sizes × inlet spreads: the scenario
// axes that decide whether the per-server controller still holds up at
// fleet scale (more machines sharing the air, hotter hot aisles).
type SweepConfig struct {
	// RackSizes are the node counts to sweep. Required, non-empty.
	RackSizes []int
	// Spreads are the hot-aisle inlet offsets to sweep; the mid aisle sits
	// at half of each spread, the cold aisle at the supply temperature.
	Spreads []units.Celsius
	// Layout is the aisle assignment pattern cycled over nodes; empty
	// means cold, mid, hot.
	Layout []Aisle
	// Seed roots the per-node workload randomness. A given rack size
	// reuses the same node seeds at every spread, so the spread axis
	// isolates the thermal effect.
	Seed int64
	// Supply is the CRAC supply temperature (default 24 °C when zero).
	Supply units.Celsius
	// Recirc is the recirculation coefficient applied at every point.
	Recirc units.KPerW
	// Duration is the per-node horizon (default one hour when zero).
	Duration units.Seconds
	// Workers caps per-point batch concurrency.
	Workers int
	// Coordinator, when set, runs every grid point under the rack-level
	// global coordinator as well: SweepPoint.Result stays the per-node
	// control baseline (the coordinator's round 0 — no extra simulation)
	// and SweepPoint.Coord carries the coordinated-vs-local comparison.
	Coordinator *CoordinatorConfig
}

// SweepPoint is one grid point's outcome.
type SweepPoint struct {
	RackSize int
	Spread   units.Celsius
	Result   *Result
	// Coord is the coordinated run of the same rack; nil unless
	// SweepConfig.Coordinator was set.
	Coord *CoordResult
}

// Sweep runs the grid in row-major order (sizes outer, spreads inner) and
// returns one point per cell, order-stable against the grid axes. Each
// point's rack simulates as a parallel batch; point results are
// bit-identical for any Workers value.
//
//lint:ignore testonly differential reference for scenario.TestFleetGridMatchesFleetSweep
func Sweep(sc SweepConfig) ([]SweepPoint, error) {
	if len(sc.RackSizes) == 0 {
		return nil, fmt.Errorf("fleet: sweep has no rack sizes")
	}
	if len(sc.Spreads) == 0 {
		return nil, fmt.Errorf("fleet: sweep has no spreads")
	}
	for _, s := range sc.Spreads {
		if s < 0 || !units.IsFinite(float64(s)) {
			return nil, fmt.Errorf("fleet: bad inlet spread %v", s)
		}
	}
	supply := sc.Supply
	if supply == 0 {
		supply = 24
	}
	points := make([]SweepPoint, 0, len(sc.RackSizes)*len(sc.Spreads))
	for _, size := range sc.RackSizes {
		for _, spread := range sc.Spreads {
			// The sub-seed is keyed on the rack size itself, not its list
			// position: the same size reruns the same workloads at every
			// spread (isolating the inlet-field effect) and across sweeps
			// with differently ordered size lists.
			cfg, err := NewRack(size, sc.Layout, stats.SubSeed(sc.Seed, int64(size)))
			if err != nil {
				return nil, err
			}
			cfg.Supply = supply
			cfg.AisleOffsets = [NumAisles]units.Celsius{Cold: 0, Mid: spread / 2, Hot: spread}
			cfg.Recirc = sc.Recirc
			cfg.Workers = sc.Workers
			if sc.Duration > 0 {
				cfg.Duration = sc.Duration
			}
			point := SweepPoint{RackSize: size, Spread: spread}
			if sc.Coordinator != nil {
				coord, err := RunCoordinated(cfg, *sc.Coordinator)
				if err != nil {
					return nil, fmt.Errorf("fleet: sweep point (size %d, spread %v): %w", size, spread, err)
				}
				point.Result, point.Coord = coord.Local, coord
			} else {
				res, err := Run(cfg)
				if err != nil {
					return nil, fmt.Errorf("fleet: sweep point (size %d, spread %v): %w", size, spread, err)
				}
				point.Result = res
			}
			points = append(points, point)
		}
	}
	return points, nil
}
