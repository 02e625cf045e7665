package control

import (
	"testing"

	"repro/internal/units"
)

func TestDeadzoneValidation(t *testing.T) {
	if _, err := NewDeadzone(75, 73, 100, testLimits); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := NewDeadzone(73, 77, 0, testLimits); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewDeadzone(73, 77, 100, Limits{Min: 10, Max: 5}); err == nil {
		t.Error("bad limits accepted")
	}
}

func TestDeadzoneStepsAndHolds(t *testing.T) {
	d, err := NewDeadzone(73, 77, 250, testLimits)
	if err != nil {
		t.Fatal(err)
	}
	// Primes from Actual.
	if got := d.Decide(FanInputs{Meas: 78, Actual: 3000}); got != 3250 {
		t.Errorf("hot step = %v, want 3250", got)
	}
	if got := d.Decide(FanInputs{Meas: 75, Actual: 3250}); got != 3250 {
		t.Errorf("in-band hold = %v, want 3250", got)
	}
	if got := d.Decide(FanInputs{Meas: 70, Actual: 3250}); got != 3000 {
		t.Errorf("cool step = %v, want 3000", got)
	}
}

func TestDeadzoneClamps(t *testing.T) {
	d, _ := NewDeadzone(73, 77, 5000, testLimits)
	if got := d.Decide(FanInputs{Meas: 80, Actual: 8000}); got != 8500 {
		t.Errorf("clamped up = %v", got)
	}
	d2, _ := NewDeadzone(73, 77, 5000, testLimits)
	if got := d2.Decide(FanInputs{Meas: 60, Actual: 1500}); got != 1000 {
		t.Errorf("clamped down = %v", got)
	}
}

func TestDeadzoneReferenceRecenters(t *testing.T) {
	d, _ := NewDeadzone(73, 77, 100, testLimits)
	if d.Reference() != 75 {
		t.Errorf("Reference = %v, want band center 75", d.Reference())
	}
	d.SetReference(80)
	if d.Low != 78 || d.High != 82 {
		t.Errorf("recentered band = [%v, %v], want [78, 82]", d.Low, d.High)
	}
}

func TestDeadzoneReset(t *testing.T) {
	d, _ := NewDeadzone(73, 77, 100, testLimits)
	d.Decide(FanInputs{Meas: 80, Actual: 3000})
	d.Reset()
	// After reset the controller re-primes from Actual.
	if got := d.Decide(FanInputs{Meas: 75, Actual: 5000}); got != 5000 {
		t.Errorf("after reset = %v, want re-primed 5000", got)
	}
}

func TestCapperValidation(t *testing.T) {
	if _, err := NewCapper(79, 76, 0.05, 0.1); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := NewCapper(76, 79, 0, 0.1); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewCapper(76, 79, 1.5, 0.1); err == nil {
		t.Error("step > 1 accepted")
	}
	if _, err := NewCapper(76, 79, 0.05, 1); err == nil {
		t.Error("minCap = 1 accepted")
	}
	if _, err := NewCapper(76, 79, 0.05, -0.1); err == nil {
		t.Error("negative minCap accepted")
	}
}

func TestCapperThrottleAndRelease(t *testing.T) {
	c, err := NewCapper(76, 79, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Hot: throttle down.
	if got := c.Decide(CapInputs{Meas: 80, Actual: 0.9}); !almostU(got, 0.85) {
		t.Errorf("hot cap = %v, want 0.85", got)
	}
	// In band: hold.
	if got := c.Decide(CapInputs{Meas: 77, Actual: 0.85}); !almostU(got, 0.85) {
		t.Errorf("band cap = %v, want 0.85", got)
	}
	// Cool: release up.
	if got := c.Decide(CapInputs{Meas: 70, Actual: 0.85}); !almostU(got, 0.9) {
		t.Errorf("cool cap = %v, want 0.9", got)
	}
}

func TestCapperBounds(t *testing.T) {
	c, _ := NewCapper(76, 79, 0.5, 0.1)
	if got := c.Decide(CapInputs{Meas: 90, Actual: 0.3}); !almostU(got, 0.1) {
		t.Errorf("deep throttle = %v, want minCap 0.1", got)
	}
	if got := c.Decide(CapInputs{Meas: 60, Actual: 0.9}); !almostU(got, 1.0) {
		t.Errorf("release past 1 = %v, want 1", got)
	}
}

func TestCapperStepsFromAppliedValue(t *testing.T) {
	// The capper must follow the applied cap, not its own last proposal:
	// the coordinator may have rejected it.
	c, _ := NewCapper(76, 79, 0.05, 0.1)
	c.Decide(CapInputs{Meas: 85, Actual: 0.9}) // proposes 0.85; suppose rejected
	got := c.Decide(CapInputs{Meas: 85, Actual: 0.9})
	if !almostU(got, 0.85) {
		t.Errorf("second proposal = %v, want 0.85 (stepped from applied 0.9)", got)
	}
}

func almostU(a, b units.Utilization) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
