package control

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

var testLimits = Limits{Min: 1000, Max: 8500}

func newTestPID(t *testing.T, g PIDGains) *PID {
	t.Helper()
	p, err := NewPID(PIDConfig{
		Gains:    g,
		RefSpeed: 2000,
		RefTemp:  75,
		Limits:   testLimits,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPIDValidation(t *testing.T) {
	if _, err := NewPID(PIDConfig{Gains: PIDGains{KP: -1}, Limits: testLimits}); err == nil {
		t.Error("negative KP accepted")
	}
	if _, err := NewPID(PIDConfig{Limits: Limits{Min: 5000, Max: 1000}}); err == nil {
		t.Error("reversed limits accepted")
	}
}

func TestPIDProportionalOnly(t *testing.T) {
	p := newTestPID(t, PIDGains{KP: 100})
	// Error +2 C -> 2000 + 200 = 2200.
	if got := p.Decide(FanInputs{Meas: 77}); got != 2200 {
		t.Errorf("P-only output = %v, want 2200", got)
	}
	// Error -3 C -> 2000 - 300 = 1700.
	if got := p.Decide(FanInputs{Meas: 72}); got != 1700 {
		t.Errorf("P-only output = %v, want 1700", got)
	}
}

func TestPIDProportionalLinearityProperty(t *testing.T) {
	// With I and D off, the output is affine in the error.
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		e := math.Mod(raw, 10)
		p, err := NewPID(PIDConfig{
			Gains:    PIDGains{KP: 50},
			RefSpeed: 4000,
			RefTemp:  75,
			Limits:   Limits{Min: 0, Max: 100000},
		})
		if err != nil {
			return false
		}
		got := p.Decide(FanInputs{Meas: units.Celsius(75 + e)})
		want := 4000 + 50*e
		return math.Abs(float64(got)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPIDIntegralAccumulates(t *testing.T) {
	p := newTestPID(t, PIDGains{KI: 10})
	// Constant +1 C error: output ramps 2010, 2020, 2030...
	for i := 1; i <= 3; i++ {
		got := p.Decide(FanInputs{Meas: 76})
		want := units.RPM(2000 + 10*i)
		if got != want {
			t.Errorf("step %d: %v, want %v", i, got, want)
		}
	}
}

func TestPIDIntegralEliminatesSteadyStateError(t *testing.T) {
	// Against a static linear plant T = 80 - 0.004*(s - 1000), a PI
	// controller must converge to the speed with zero error at T_ref=75:
	// s = 1000 + 5/0.004 = 2250.
	p := newTestPID(t, PIDGains{KP: 50, KI: 20})
	s := units.RPM(2000)
	for i := 0; i < 400; i++ {
		temp := units.Celsius(80 - 0.004*float64(s-1000))
		s = p.Decide(FanInputs{Meas: temp, Actual: s})
	}
	finalTemp := 80 - 0.004*float64(s-1000)
	if math.Abs(finalTemp-75) > 0.01 {
		t.Errorf("steady temp = %v, want 75 (s = %v)", finalTemp, s)
	}
}

func TestPIDDerivativeRespondsToChange(t *testing.T) {
	p := newTestPID(t, PIDGains{KD: 100})
	p.Decide(FanInputs{Meas: 75}) // e=0, primes derivative
	// e jumps to +2: derivative term 100*2 = 200.
	if got := p.Decide(FanInputs{Meas: 77}); got != 2200 {
		t.Errorf("derivative kick = %v, want 2200", got)
	}
	// e stays +2: derivative term 0.
	if got := p.Decide(FanInputs{Meas: 77}); got != 2000 {
		t.Errorf("steady derivative = %v, want 2000", got)
	}
}

func TestPIDNoDerivativeKickOnFirstSample(t *testing.T) {
	p := newTestPID(t, PIDGains{KD: 1000})
	// First sample must not produce a derivative contribution even with a
	// big error.
	if got := p.Decide(FanInputs{Meas: 85}); got != 2000 {
		t.Errorf("first sample = %v, want 2000 (no kick)", got)
	}
}

func TestPIDOutputClamped(t *testing.T) {
	p := newTestPID(t, PIDGains{KP: 1e6})
	if got := p.Decide(FanInputs{Meas: 80}); got != 8500 {
		t.Errorf("huge error output = %v, want clamp 8500", got)
	}
	if got := p.Decide(FanInputs{Meas: 60}); got != 1000 {
		t.Errorf("huge negative output = %v, want clamp 1000", got)
	}
}

func TestPIDAntiWindup(t *testing.T) {
	// Long saturation must not wind the integral so far that recovery
	// takes longer than the windup bound allows. KI = 75 makes the bound
	// span / KI = 7500/75 = 100.
	p := newTestPID(t, PIDGains{KI: 75})
	for i := 0; i < 1000; i++ {
		p.Decide(FanInputs{Meas: 85}) // +10 error, saturates quickly
	}
	// errSum is clamped at +100, so a -10 C error must pull the output
	// below ref within ~10 steps, not the ~1000 an unbounded sum would
	// need.
	var got units.RPM
	for i := 0; i < 25; i++ {
		got = p.Decide(FanInputs{Meas: 65})
	}
	if got > 2000 {
		t.Errorf("after 25 recovery steps output = %v, windup not bounded", got)
	}
}

func TestPIDDefaultWindupCoversActuatorSpan(t *testing.T) {
	p := newTestPID(t, PIDGains{KI: 2})
	// default windup = span / KI = 7500/2 = 3750
	for i := 0; i < 100000; i++ {
		p.Decide(FanInputs{Meas: 85})
	}
	if p.errSum > 3750+1e-9 {
		t.Errorf("errSum = %v, want <= 3750", p.errSum)
	}
}

func TestPIDResetAndResetIntegral(t *testing.T) {
	p := newTestPID(t, PIDGains{KP: 10, KI: 10, KD: 10})
	p.Decide(FanInputs{Meas: 80})
	p.Decide(FanInputs{Meas: 80})
	p.ResetIntegral()
	if p.errSum != 0 {
		t.Error("ResetIntegral did not zero the sum")
	}
	if !p.primed {
		t.Error("ResetIntegral must preserve derivative priming")
	}
	p.Reset()
	if p.primed || p.prevErr != 0 {
		t.Error("Reset incomplete")
	}
}

func TestPIDReferenceAccessors(t *testing.T) {
	p := newTestPID(t, PIDGains{KP: 1})
	if p.Reference() != 75 {
		t.Error("Reference() wrong")
	}
	p.SetReference(70)
	if p.Reference() != 70 {
		t.Error("SetReference did not take")
	}
	p.SetRefSpeed(6000)
	if p.cfg.RefSpeed != 6000 {
		t.Error("SetRefSpeed did not take")
	}
	p.SetGains(PIDGains{KP: 9})
	if p.cfg.Gains.KP != 9 {
		t.Error("SetGains did not take")
	}
	if p.cfg.Limits != testLimits {
		t.Error("limits wrong")
	}
}
