package control

import (
	"fmt"

	"repro/internal/units"
)

// Capper is the deadzone-like CPU utilization capper of Sec. III-A: two
// thresholds T_th^low < T_th^high bracket the comfort band. When the
// measured temperature exceeds T_th^high the cap is lowered by StepSize
// (throttling cools the die); when it drops below T_th^low the cap is
// raised again; inside the band the cap holds.
//
// Note: the paper's prose states the opposite directions (raise when hot,
// lower when cool), which contradicts both the thermal-capping literature
// it cites and the cooling semantics its own Table II assigns to cap-down.
// We implement the physically meaningful direction.
type Capper struct {
	Low, High units.Celsius
	StepSize  units.Utilization
	MinCap    units.Utilization
}

// NewCapper validates and builds the capper. minCap bounds how deep the
// capper may throttle (a real platform never caps to zero: management
// work must still run).
func NewCapper(low, high units.Celsius, step, minCap units.Utilization) (*Capper, error) {
	if high <= low {
		return nil, fmt.Errorf("control: capper band [%v, %v] empty", low, high)
	}
	if step <= 0 || step > 1 {
		return nil, fmt.Errorf("control: capper step %v outside (0, 1]", step)
	}
	if minCap < 0 || minCap >= 1 {
		return nil, fmt.Errorf("control: min cap %v outside [0, 1)", minCap)
	}
	return &Capper{Low: low, High: high, StepSize: step, MinCap: minCap}, nil
}

// Decide proposes the cap for the next CPU decision period. The step is taken from the currently
// applied cap, not from an internally remembered proposal: the coordinator
// may have rejected the previous proposal, and stepping from the applied
// value keeps the local law consistent with the platform.
func (c *Capper) Decide(in CapInputs) units.Utilization {
	cap := in.Actual
	switch {
	case in.Meas > c.High:
		cap -= c.StepSize
	case in.Meas < c.Low:
		cap += c.StepSize
	}
	if cap < c.MinCap {
		cap = c.MinCap
	}
	if cap > 1 {
		cap = 1
	}
	return cap
}

// Reset clears controller state (the capper is stateless).
func (c *Capper) Reset() {}
