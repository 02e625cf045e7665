package control

import (
	"testing"

	"repro/internal/units"
)

func newGuarded(t *testing.T) (*QuantGuard, *PID) {
	t.Helper()
	p := newTestPID(t, PIDGains{KP: 100, KI: 10})
	g, err := NewQuantGuard(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestQuantGuardValidation(t *testing.T) {
	p := newTestPID(t, PIDGains{KP: 1})
	if _, err := NewQuantGuard(nil, 1); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewQuantGuard(p, 0); err == nil {
		t.Error("zero TQ accepted")
	}
	if _, err := NewQuantGuard(p, -1); err == nil {
		t.Error("negative TQ accepted")
	}
}

func TestQuantGuardHoldsWithinBand(t *testing.T) {
	g, p := newGuarded(t)
	// |75 - 74.5| = 0.5 < 1: hold the applied speed; the inner integral
	// stays frozen while the derivative history observes the sample.
	if got := g.Decide(FanInputs{Meas: 74.5, Actual: 3210}); got != 3210 {
		t.Errorf("guarded output = %v, want held 3210", got)
	}
	if p.errSum != 0 {
		t.Error("inner integral advanced inside the guard band")
	}
	if !p.primed || p.prevErr != -0.5 {
		t.Errorf("derivative history not tracking during hold: primed=%v prevErr=%v", p.primed, p.prevErr)
	}
}

func TestQuantGuardNoDerivativeKickOnExit(t *testing.T) {
	// While held, the derivative history follows the measurement, so the
	// exit step sees only the last one-sample change, not the whole band
	// crossing.
	p, err := NewPID(PIDConfig{
		Gains:    PIDGains{KD: 1000},
		RefSpeed: 3000,
		RefTemp:  75,
		Limits:   testLimits,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewQuantGuard(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the measurement across the band: 74 (held), 75 (held),
	// 76 (held), then exit at 77.
	for _, m := range []units.Celsius{74, 75, 76} {
		if got := g.Decide(FanInputs{Meas: m, Actual: 3000}); got != 3000 {
			t.Fatalf("Meas=%v not held", m)
		}
	}
	// Exit: e jumps from +1 (last observed) to +2: KD term = 1000*1.
	got := g.Decide(FanInputs{Meas: 77, Actual: 3000})
	if got != 4000 {
		t.Errorf("exit output = %v, want 4000 (one-code derivative)", got)
	}
}

func TestQuantGuardEq10Boundary(t *testing.T) {
	g, _ := newGuarded(t)
	// |error| == TQ holds (inclusive band): a one-code error is exactly
	// the quantization noise the guard exists to ignore.
	if got := g.Decide(FanInputs{Meas: 76, Actual: 3000}); got != 3000 {
		t.Errorf("one-code error output = %v, want held 3000", got)
	}
	// Just beyond one code: the controller runs.
	if got := g.Decide(FanInputs{Meas: 76.5, Actual: 3000}); got == 3000 {
		t.Error("1.5-code error treated as inside the band")
	}
}

func TestQuantGuardPassesLargeErrors(t *testing.T) {
	g, p := newGuarded(t)
	got := g.Decide(FanInputs{Meas: 78, Actual: 2000})
	// e = 3: P = 300, I = 30 -> 2330.
	if got != 2330 {
		t.Errorf("unguarded output = %v, want 2330", got)
	}
	if p.errSum == 0 {
		t.Error("inner did not accumulate on a real error")
	}
}

func TestQuantGuardEliminatesLimitCycle(t *testing.T) {
	// Simulated quantized plant: the measurement toggles between 74 and
	// 75 (quantized around a true 74.5) as the fan crosses a speed
	// boundary. Without the guard, a PI controller flips output forever;
	// with the guard (TQ = 1) both measurements are within the band of
	// T_ref = 75 except 74 exactly at distance 1... use 75/76 toggling
	// around T_ref = 75.5 instead, both within |e| < 1.
	p, err := NewPID(PIDConfig{
		Gains:    PIDGains{KP: 200, KI: 50},
		RefSpeed: 2000,
		RefTemp:  75.5,
		Limits:   testLimits,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewQuantGuard(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	speed := units.RPM(2000)
	changes := 0
	for i := 0; i < 100; i++ {
		meas := units.Celsius(75)
		if i%2 == 1 {
			meas = 76
		}
		next := g.Decide(FanInputs{Meas: meas, Actual: speed})
		if next != speed {
			changes++
		}
		speed = next
	}
	if changes != 0 {
		t.Errorf("fan speed changed %d times inside the quantization band", changes)
	}
}

func TestQuantGuardWithoutGuardOscillates(t *testing.T) {
	// Control for the test above: the bare PI controller does keep
	// moving under the same toggling measurement.
	p, _ := NewPID(PIDConfig{
		Gains:    PIDGains{KP: 200, KI: 50},
		RefSpeed: 2000,
		RefTemp:  75.5,
		Limits:   testLimits,
	})
	speed := units.RPM(2000)
	changes := 0
	for i := 0; i < 100; i++ {
		meas := units.Celsius(75)
		if i%2 == 1 {
			meas = 76
		}
		next := p.Decide(FanInputs{Meas: meas, Actual: speed})
		if next != speed {
			changes++
		}
		speed = next
	}
	if changes < 50 {
		t.Errorf("bare PI changed only %d times; test premise broken", changes)
	}
}

func TestQuantGuardAccessors(t *testing.T) {
	g, p := newGuarded(t)
	if g.tq != 1 {
		t.Error("Step wrong")
	}
	if g.inner != FanController(p) {
		t.Error("Inner wrong")
	}
	if g.Reference() != 75 {
		t.Error("Reference wrong")
	}
	g.SetReference(70)
	if p.Reference() != 70 {
		t.Error("SetReference did not pass through")
	}
	p.Decide(FanInputs{Meas: 80})
	g.Reset()
	if p.errSum != 0 {
		t.Error("Reset did not pass through")
	}
}
