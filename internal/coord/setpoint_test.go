package coord

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestSetpointValidation(t *testing.T) {
	if _, err := NewSetpointScheduler(80, 70, 30); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := NewSetpointScheduler(70, 80, 0); err == nil {
		t.Error("zero window accepted")
	}
}

func TestSetpointLinearScaling(t *testing.T) {
	// Sec. V-B: T_ref scales linearly with predicted utilization over
	// the band. With a filled window of constant utilization the
	// prediction equals the input.
	s, err := NewSetpointScheduler(70, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got units.Celsius
	for i := 0; i < 20; i++ {
		got = s.Observe(0.5)
	}
	if math.Abs(float64(got-75)) > 1e-9 {
		t.Errorf("T_ref(0.5) = %v, want 75", got)
	}
	for i := 0; i < 20; i++ {
		got = s.Observe(0.0)
	}
	if got != 70 {
		t.Errorf("T_ref(0) = %v, want 70", got)
	}
	for i := 0; i < 20; i++ {
		got = s.Observe(1.0)
	}
	if got != 80 {
		t.Errorf("T_ref(1) = %v, want 80", got)
	}
}

func TestSetpointFiltersNoise(t *testing.T) {
	// A single spike in a long window barely moves the set-point — the
	// moving-average predictor exists to filter exactly this.
	s, _ := NewSetpointScheduler(70, 80, 30)
	for i := 0; i < 30; i++ {
		s.Observe(0.1)
	}
	before := s.Current()
	after := s.Observe(1.0)
	if float64(after-before) > 0.5 {
		t.Errorf("one spike moved T_ref by %v", after-before)
	}
}

func TestSetpointBoundsProperty(t *testing.T) {
	s, _ := NewSetpointScheduler(70, 80, 10)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		got := s.Observe(units.Utilization(math.Mod(raw, 3)))
		return got >= 70 && got <= 80
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetpointReset(t *testing.T) {
	s, _ := NewSetpointScheduler(70, 80, 4)
	for i := 0; i < 10; i++ {
		s.Observe(0.9)
	}
	s.Reset()
	if s.Current() != 70 {
		t.Errorf("after reset Current = %v, want 70", s.Current())
	}
	if got := s.Observe(0.4); math.Abs(float64(got-74)) > 1e-9 {
		t.Errorf("first post-reset observation = %v, want 74 (fresh window)", got)
	}
}

func TestSingleStepValidation(t *testing.T) {
	if _, err := NewSingleStepScaler(0, 10, 1); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := NewSingleStepScaler(1.5, 10, 1); err == nil {
		t.Error("threshold > 1 accepted")
	}
	if _, err := NewSingleStepScaler(0.3, 0, 1); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSingleStepScaler(0.3, 10, -1); err == nil {
		t.Error("negative margin accepted")
	}
}

func TestSingleStepTriggersOnDegradation(t *testing.T) {
	s, err := NewSingleStepScaler(0.3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Window must fill before the scaler may trigger.
	for i := 0; i < 9; i++ {
		if s.Observe(true, 85, 75) {
			t.Fatalf("boost before window filled (tick %d)", i)
		}
	}
	if !s.Observe(true, 85, 75) {
		t.Fatal("boost did not trigger with 100% degradation")
	}
	if !s.boosted || s.boosts != 1 {
		t.Errorf("state = boosted %v count %d", s.boosted, s.boosts)
	}
}

func TestSingleStepReleaseConditions(t *testing.T) {
	s, _ := NewSingleStepScaler(0.3, 5, 1)
	for i := 0; i < 5; i++ {
		s.Observe(true, 85, 75)
	}
	if !s.boosted {
		t.Fatal("not boosted")
	}
	// Violations cleared but still warm: keep boosting.
	for i := 0; i < 5; i++ {
		s.Observe(false, 76, 75)
	}
	if !s.boosted {
		t.Error("released while above T_ref - margin")
	}
	// Cool AND clean: release.
	s.Observe(false, 73, 75)
	if s.boosted {
		t.Error("did not release when cool and violation-free")
	}
	// A fresh degradation burst re-triggers.
	for i := 0; i < 5; i++ {
		s.Observe(true, 85, 75)
	}
	if !s.boosted || s.boosts != 2 {
		t.Errorf("re-trigger failed: boosted %v count %d", s.boosted, s.boosts)
	}
}

func TestSingleStepBelowThresholdNoBoost(t *testing.T) {
	s, _ := NewSingleStepScaler(0.5, 10, 1)
	// 40% degradation < 50% threshold.
	for i := 0; i < 50; i++ {
		s.Observe(i%5 < 2, 85, 75)
	}
	if s.boosted {
		t.Error("boosted below threshold")
	}
}

func TestSingleStepReset(t *testing.T) {
	s, _ := NewSingleStepScaler(0.3, 5, 1)
	for i := 0; i < 5; i++ {
		s.Observe(true, 85, 75)
	}
	s.Reset()
	if s.boosted || s.boosts != 0 {
		t.Error("reset incomplete")
	}
	// Window must refill from scratch.
	if s.Observe(true, 85, 75) {
		t.Error("boost immediately after reset")
	}
}
