package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func mustCPU(t *testing.T) CPUModel {
	t.Helper()
	m, err := NewCPUModel(96, 160)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustFan(t *testing.T) FanModel {
	t.Helper()
	m, err := NewFanModel(29.4, 8500)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCPUModelTableI(t *testing.T) {
	m := mustCPU(t)
	if m.Static != 96 || m.Dynamic != 64 {
		t.Fatalf("model = %+v, want static 96 dynamic 64", m)
	}
	if got := m.Power(0); got != 96 {
		t.Errorf("P(0) = %v, want 96", got)
	}
	if got := m.Power(1); got != 160 {
		t.Errorf("P(1) = %v, want 160", got)
	}
	if got := m.Power(0.5); got != 128 {
		t.Errorf("P(0.5) = %v, want 128", got)
	}
}

func TestCPUModelClampsUtilization(t *testing.T) {
	m := mustCPU(t)
	if got := m.Power(-1); got != 96 {
		t.Errorf("P(-1) = %v, want clamp to 96", got)
	}
	if got := m.Power(2); got != 160 {
		t.Errorf("P(2) = %v, want clamp to 160", got)
	}
}

func TestCPUModelValidation(t *testing.T) {
	if _, err := NewCPUModel(-1, 100); err == nil {
		t.Error("negative idle accepted")
	}
	if _, err := NewCPUModel(100, 50); err == nil {
		t.Error("max < idle accepted")
	}
	if _, err := NewCPUModel(50, -1); err == nil {
		t.Error("negative max accepted")
	}
}

func TestCPUModelInverse(t *testing.T) {
	m := mustCPU(t)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		u := units.Utilization(math.Mod(math.Abs(raw), 1))
		p := m.Power(u)
		back := m.UtilizationFor(p)
		return math.Abs(float64(back-u)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Degenerate dynamic range.
	flat, _ := NewCPUModel(50, 50)
	if flat.UtilizationFor(50) != 0 {
		t.Error("flat model inverse should be 0")
	}
}

func TestFanModelCubicLaw(t *testing.T) {
	m := mustFan(t)
	if got := m.Power(8500); math.Abs(float64(got)-29.4) > 1e-9 {
		t.Errorf("P(max) = %v, want 29.4", got)
	}
	if got := m.Power(0); got != 0 {
		t.Errorf("P(0) = %v", got)
	}
	// Half speed draws 1/8 the power.
	if got := m.Power(4250); math.Abs(float64(got)-29.4/8) > 1e-9 {
		t.Errorf("P(half) = %v, want %v", got, 29.4/8)
	}
	// Clamping beyond max.
	if got := m.Power(20000); math.Abs(float64(got)-29.4) > 1e-9 {
		t.Errorf("P(20000) = %v, want clamp to 29.4", got)
	}
	if got := m.Power(-100); got != 0 {
		t.Errorf("P(-100) = %v, want 0", got)
	}
}

func TestFanModelValidation(t *testing.T) {
	if _, err := NewFanModel(-1, 8500); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := NewFanModel(29.4, 0); err == nil {
		t.Error("zero max speed accepted")
	}
}

func TestFanPowerMonotoneProperty(t *testing.T) {
	m := mustFan(t)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		sa := units.RPM(math.Mod(math.Abs(a), 8500))
		sb := units.RPM(math.Mod(math.Abs(b), 8500))
		if sa > sb {
			sa, sb = sb, sa
		}
		return m.Power(sa) <= m.Power(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
