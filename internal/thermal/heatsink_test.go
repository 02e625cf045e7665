package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestTableIResistanceValues(t *testing.T) {
	law := TableIHeatSinkLaw()
	// Spot values computed directly from R = 0.141 + 132.5/v^0.923.
	tests := []struct {
		v    units.RPM
		want float64
	}{
		{8500, 0.141 + 132.5/math.Pow(8500, 0.923)},
		{6000, 0.141 + 132.5/math.Pow(6000, 0.923)},
		{2000, 0.141 + 132.5/math.Pow(2000, 0.923)},
		{1000, 0.141 + 132.5/math.Pow(1000, 0.923)},
	}
	for _, tt := range tests {
		got := law.Resistance(tt.v)
		if math.Abs(float64(got)-tt.want) > 1e-12 {
			t.Errorf("R(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
	// Sanity on the magnitudes the model's calibration rests on.
	if r := law.Resistance(8500); math.Abs(float64(r)-0.172) > 0.002 {
		t.Errorf("R(8500) = %v, want ~0.172", r)
	}
	if r := law.Resistance(2000); math.Abs(float64(r)-0.260) > 0.002 {
		t.Errorf("R(2000) = %v, want ~0.260", r)
	}
}

func TestResistanceMonotoneDecreasing(t *testing.T) {
	law := TableIHeatSinkLaw()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		va := units.RPM(100 + math.Mod(math.Abs(a), 8400))
		vb := units.RPM(100 + math.Mod(math.Abs(b), 8400))
		if va > vb {
			va, vb = vb, va
		}
		return law.Resistance(va) >= law.Resistance(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResistanceFloorsLowSpeed(t *testing.T) {
	law := TableIHeatSinkLaw()
	if got, want := law.Resistance(0), law.Resistance(100); got != want {
		t.Errorf("R(0) = %v, want clamp to R(100) = %v", got, want)
	}
	if got, want := law.Resistance(-500), law.Resistance(100); got != want {
		t.Errorf("R(-500) = %v, want %v", got, want)
	}
}

func TestSpeedForInvertsResistance(t *testing.T) {
	law := TableIHeatSinkLaw()
	for _, v := range []units.RPM{500, 1000, 2000, 4000, 6000, 8500} {
		r := law.Resistance(v)
		got, err := law.SpeedFor(r)
		if err != nil {
			t.Fatalf("SpeedFor(R(%v)): %v", v, err)
		}
		if math.Abs(float64(got-v)) > 0.01 {
			t.Errorf("SpeedFor(R(%v)) = %v", v, got)
		}
	}
}

func TestSpeedForRejectsUnreachable(t *testing.T) {
	law := TableIHeatSinkLaw()
	if _, err := law.SpeedFor(law.R0); err == nil {
		t.Error("resistance at floor accepted")
	}
	if _, err := law.SpeedFor(0.1); err == nil {
		t.Error("resistance below floor accepted")
	}
	// Resistance higher than at the minimum speed: requires sub-floor speed.
	tooHigh := law.Resistance(minSpeedFloor) + 1
	if _, err := law.SpeedFor(tooHigh); err == nil {
		t.Error("sub-floor speed accepted")
	}
}

func TestSensitivityShrinksWithSpeed(t *testing.T) {
	law := TableIHeatSinkLaw()
	load := units.Watt(140.8) // P at u = 0.7
	s2000 := law.Sensitivity(2000, load)
	s6000 := law.Sensitivity(6000, load)
	if s2000 >= 0 || s6000 >= 0 {
		t.Fatalf("sensitivities must be negative: %v, %v", s2000, s6000)
	}
	ratio := s2000 / s6000
	if ratio < 5 || ratio > 12 {
		t.Errorf("gain ratio 2000/6000 = %v, want ~8 (paper's nonlinearity)", ratio)
	}
}

func TestSensitivityFloor(t *testing.T) {
	law := TableIHeatSinkLaw()
	if got, want := law.Sensitivity(0, 100), law.Sensitivity(100, 100); got != want {
		t.Errorf("Sensitivity(0) = %v, want clamped %v", got, want)
	}
}
