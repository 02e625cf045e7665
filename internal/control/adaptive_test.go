package control

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func paperRegions() []Region {
	return []Region{
		{RefSpeed: 2000, Gains: PIDGains{KP: 400, KI: 40, KD: 200}},
		{RefSpeed: 6000, Gains: PIDGains{KP: 2400, KI: 240, KD: 1200}},
	}
}

func newTestAdaptive(t *testing.T) *AdaptivePID {
	t.Helper()
	a, err := NewAdaptivePID(paperRegions(), 75, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptivePID(nil, 75, testLimits); err == nil {
		t.Error("empty regions accepted")
	}
	dup := []Region{{RefSpeed: 2000}, {RefSpeed: 2000}}
	if _, err := NewAdaptivePID(dup, 75, testLimits); err == nil {
		t.Error("duplicate regions accepted")
	}
	neg := []Region{{RefSpeed: 2000, Gains: PIDGains{KP: -1}}}
	if _, err := NewAdaptivePID(neg, 75, testLimits); err == nil {
		t.Error("negative gains accepted")
	}
	if _, err := NewAdaptivePID(paperRegions(), 75, Limits{Min: 10, Max: 5}); err == nil {
		t.Error("bad limits accepted")
	}
}

func TestAdaptiveSortsRegions(t *testing.T) {
	rs := []Region{
		{RefSpeed: 6000, Gains: PIDGains{KP: 2400}},
		{RefSpeed: 2000, Gains: PIDGains{KP: 400}},
	}
	a, err := NewAdaptivePID(rs, 75, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	got := a.regions
	if got[0].RefSpeed != 2000 || got[1].RefSpeed != 6000 {
		t.Errorf("regions not sorted: %+v", got)
	}
}

func TestAdaptiveGainInterpolationEq8(t *testing.T) {
	a := newTestAdaptive(t)
	tests := []struct {
		speed  units.RPM
		wantKP float64
	}{
		{1000, 400},  // below the first region: clamp to region 0
		{2000, 400},  // exactly region 0
		{4000, 1400}, // alpha = 0.5: midway
		{3000, 900},  // alpha = 0.25
		{6000, 2400}, // exactly region 1
		{8000, 2400}, // above last region: clamp
	}
	for _, tt := range tests {
		g, _ := a.scheduled(tt.speed)
		if math.Abs(g.KP-tt.wantKP) > 1e-9 {
			t.Errorf("scheduled(%v).KP = %v, want %v", tt.speed, g.KP, tt.wantKP)
		}
	}
}

func TestAdaptiveInterpolationBoundsProperty(t *testing.T) {
	// Interpolated gains always lie within the min/max of region gains.
	a := newTestAdaptive(t)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		s := units.RPM(math.Mod(math.Abs(raw), 10000))
		g, _ := a.scheduled(s)
		return g.KP >= 400 && g.KP <= 2400 &&
			g.KI >= 40 && g.KI <= 240 &&
			g.KD >= 200 && g.KD <= 1200
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func threeRegions() []Region {
	return []Region{
		{RefSpeed: 2000, Gains: PIDGains{KP: 400, KI: 40, KD: 200}},
		{RefSpeed: 4000, Gains: PIDGains{KP: 1000, KI: 100, KD: 500}},
		{RefSpeed: 6000, Gains: PIDGains{KP: 2400, KI: 240, KD: 1200}},
	}
}

func TestAdaptivePairSwitchResetsIntegral(t *testing.T) {
	a, err := NewAdaptivePID(threeRegions(), 75, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate integral in pair (0, 1).
	for i := 0; i < 5; i++ {
		a.Decide(FanInputs{Meas: 77, Actual: 2500})
	}
	if a.pid.errSum == 0 {
		t.Fatal("integral did not accumulate")
	}
	if a.active != 0 {
		t.Fatalf("active pair = %d, want 0", a.active)
	}
	// Operating speed crosses into pair (1, 2): s_ref updates to the
	// pair's lower bound and the integral resets (Sec. IV-B).
	a.Decide(FanInputs{Meas: 77, Actual: 5500})
	if a.active != 1 {
		t.Fatalf("active pair = %d, want 1", a.active)
	}
	if a.pid.cfg.RefSpeed != 4000 {
		t.Errorf("s_ref = %v, want 4000 after switch", a.pid.cfg.RefSpeed)
	}
	// errSum contains only the current step's error (reset happened
	// before Decide's accumulation of +2).
	if math.Abs(a.pid.errSum-2) > 1e-9 {
		t.Errorf("errSum = %v, want 2 (reset then one step)", a.pid.errSum)
	}
}

func TestAdaptiveTwoRegionsNeverSwitch(t *testing.T) {
	// With two regions there is a single pair: the offset stays at the
	// lower reference across the whole speed range and the integral is
	// never spuriously reset.
	a := newTestAdaptive(t)
	for _, s := range []units.RPM{1500, 2500, 4500, 5900, 7000} {
		a.Decide(FanInputs{Meas: 77, Actual: s})
		if a.active != 0 {
			t.Fatalf("pair switched at %v", s)
		}
		if a.pid.cfg.RefSpeed != 2000 {
			t.Fatalf("s_ref = %v at %v, want 2000", a.pid.cfg.RefSpeed, s)
		}
	}
	if math.Abs(a.pid.errSum-10) > 1e-9 {
		t.Errorf("errSum = %v, want 10 (5 steps of +2, no resets)", a.pid.errSum)
	}
}

func TestAdaptiveUsesScheduledGains(t *testing.T) {
	a := newTestAdaptive(t)
	// At actual 6000 the scheduled gains are region 1's; s_ref stays at
	// the pair's lower bound 2000. First decide primes the derivative.
	a.Decide(FanInputs{Meas: 75, Actual: 6000})
	got := a.Decide(FanInputs{Meas: 76, Actual: 6000})
	// e=1: P=2400, I=240*(0+1), D=1200*(1-0) -> 2000+2400+240+1200 = 5840.
	if got != 5840 {
		t.Errorf("out = %v, want 5840", got)
	}
}

func TestAdaptiveReset(t *testing.T) {
	a := newTestAdaptive(t)
	a.Decide(FanInputs{Meas: 80, Actual: 7000})
	a.Reset()
	if a.active != 0 {
		t.Error("Reset did not return to region 0")
	}
	if a.pid.cfg.RefSpeed != 2000 {
		t.Error("Reset did not restore s_ref")
	}
	if a.pid.errSum != 0 || a.pid.primed {
		t.Error("Reset did not clear PID state")
	}
}

func TestAdaptiveReferencePassThrough(t *testing.T) {
	a := newTestAdaptive(t)
	if a.Reference() != 75 {
		t.Error("Reference wrong")
	}
	a.SetReference(72)
	if a.Reference() != 72 {
		t.Error("SetReference did not take")
	}
}

func TestAdaptiveSingleRegionDegeneratesToFixedPID(t *testing.T) {
	one := []Region{{RefSpeed: 3000, Gains: PIDGains{KP: 100}}}
	a, err := NewAdaptivePID(one, 75, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []units.RPM{1000, 3000, 8000} {
		g, idx := a.scheduled(s)
		if g.KP != 100 || idx != 0 {
			t.Errorf("scheduled(%v) = %+v, %d", s, g, idx)
		}
	}
}

func TestAdaptiveOutputContinuousAcrossPairSwitch(t *testing.T) {
	// Near steady state (small constant error), the output ramps slowly
	// across the 4000 rpm pair boundary. The s_ref update plus integral
	// reset must stay nearly continuous there: at the boundary the
	// discarded integral encodes exactly the s_ref delta. The buggy
	// "nearest-region" interpretation jumps by ~half the region spacing.
	a, err := NewAdaptivePID(threeRegions(), 75, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	out := units.RPM(3600)
	crossed := false
	for i := 0; i < 600 && !crossed; i++ {
		next := a.Decide(FanInputs{Meas: 75.1, Actual: out})
		jump := float64(next - out)
		if jump < 0 {
			jump = -jump
		}
		if out < 4000 && next >= 4000 {
			crossed = true
			if jump > 500 {
				t.Fatalf("output jumped %.0f rpm across the pair boundary", jump)
			}
		}
		out = next
	}
	if !crossed {
		t.Fatal("loop never crossed the pair boundary; test premise broken")
	}
}
