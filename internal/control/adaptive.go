package control

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// Region is one gain-scheduling operating point of Sec. IV-B: a set of PID
// parameters tuned (e.g. by Ziegler–Nichols) around a reference fan speed.
type Region struct {
	RefSpeed units.RPM // s_ref^(i), the fan speed the gains were tuned at
	Gains    PIDGains
}

// AdaptivePID is the adaptive PID control scheme of Sec. IV-B: it keeps a
// table of per-region gain sets and, each decision period, interpolates
// the active gains between the two regions adjacent to the operating fan
// speed (Eqs. 8–9):
//
//	K(k) = (1 − α(k))·K^(i) + α(k)·K^(i+1)
//	α(k) = (s_fan(k) − s_ref^(i)) / (s_ref^(i+1) − s_ref^(i))
//
// The operating region is the adjacent pair (i, i+1) bracketing the
// current speed; the Eq. 4 offset s_ref is the pair's lower reference
// s_ref^(i). When the pair changes the offset is updated and the integral
// sum zeroed, as the paper specifies. At a pair switch the operating speed
// equals the shared boundary reference, so the positional output stays
// continuous: the discarded integral encoded exactly the offset between
// the old and new s_ref.
type AdaptivePID struct {
	regions []Region
	pid     *PID
	active  int // index of the active pair's lower region
}

// NewAdaptivePID builds an adaptive controller over the given regions
// (at least one; sorted internally by reference speed). The controller
// starts in the lowest region.
func NewAdaptivePID(regions []Region, refTemp units.Celsius, limits Limits) (*AdaptivePID, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("control: no gain-scheduling regions")
	}
	rs := append([]Region(nil), regions...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].RefSpeed < rs[j].RefSpeed })
	for i := 1; i < len(rs); i++ {
		if rs[i].RefSpeed == rs[i-1].RefSpeed {
			return nil, fmt.Errorf("control: duplicate region reference speed %v", rs[i].RefSpeed)
		}
	}
	for i, r := range rs {
		if r.Gains.KP < 0 || r.Gains.KI < 0 || r.Gains.KD < 0 {
			return nil, fmt.Errorf("control: region %d has negative gains %+v", i, r.Gains)
		}
	}
	pid, err := NewPID(PIDConfig{
		Gains:    rs[0].Gains,
		RefSpeed: rs[0].RefSpeed,
		RefTemp:  refTemp,
		Limits:   limits,
	})
	if err != nil {
		return nil, err
	}
	return &AdaptivePID{regions: rs, pid: pid}, nil
}

// scheduled returns the interpolated gains and the active pair's lower
// region index for operating speed s.
func (a *AdaptivePID) scheduled(s units.RPM) (PIDGains, int) {
	rs := a.regions
	n := len(rs)
	if n == 1 || s <= rs[0].RefSpeed {
		return rs[0].Gains, 0
	}
	if s >= rs[n-1].RefSpeed {
		if n == 1 {
			return rs[0].Gains, 0
		}
		return rs[n-1].Gains, n - 2
	}
	i := sort.Search(n, func(k int) bool { return rs[k].RefSpeed > s }) - 1
	lo, hi := rs[i], rs[i+1]
	alpha := float64(s-lo.RefSpeed) / float64(hi.RefSpeed-lo.RefSpeed)
	g := PIDGains{
		KP: units.Lerp(lo.Gains.KP, hi.Gains.KP, alpha),
		KI: units.Lerp(lo.Gains.KI, hi.Gains.KI, alpha),
		KD: units.Lerp(lo.Gains.KD, hi.Gains.KD, alpha),
	}
	return g, i
}

// Decide implements FanController. Gains are scheduled on the *actual*
// operating fan speed, not the last proposal, so a coordinator that
// rejects fan actions cannot strand the scheduler in the wrong region.
func (a *AdaptivePID) Decide(in FanInputs) units.RPM {
	gains, nearest := a.scheduled(in.Actual)
	if nearest != a.active {
		a.active = nearest
		a.pid.SetRefSpeed(a.regions[nearest].RefSpeed)
		a.pid.ResetIntegral()
	}
	a.pid.SetGains(gains)
	return a.pid.Decide(in)
}

// ObserveHold forwards a held-output observation to the underlying PID
// (see PID.ObserveHold).
func (a *AdaptivePID) ObserveHold(meas units.Celsius) { a.pid.ObserveHold(meas) }

// SetSlewPerStep bounds the per-decision command step of the underlying
// PID (see PID.SetSlewPerStep).
func (a *AdaptivePID) SetSlewPerStep(s units.RPM) { a.pid.SetSlewPerStep(s) }

// SetSlewFrac switches the underlying PID to a speed-proportional
// per-decision bound (see PID.SetSlewFrac).
func (a *AdaptivePID) SetSlewFrac(frac float64, floor units.RPM) { a.pid.SetSlewFrac(frac, floor) }

// ResetIntegral zeroes the underlying PID's error sum (used after
// externally imposed actuator moves such as a single-step boost release).
func (a *AdaptivePID) ResetIntegral() { a.pid.ResetIntegral() }

// Reference implements FanController.
func (a *AdaptivePID) Reference() units.Celsius { return a.pid.Reference() }

// SetReference implements FanController.
func (a *AdaptivePID) SetReference(t units.Celsius) { a.pid.SetReference(t) }

// Reset implements FanController.
func (a *AdaptivePID) Reset() {
	a.pid.Reset()
	a.active = 0
	a.pid.SetRefSpeed(a.regions[0].RefSpeed)
	a.pid.SetGains(a.regions[0].Gains)
}
