package filter

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageBasics(t *testing.T) {
	m := NewMovingAverage(3)
	steps := []struct{ in, want float64 }{
		{3, 3},   // [3]
		{6, 4.5}, // [3 6]
		{9, 6},   // [3 6 9]
		{12, 9},  // [6 9 12]
		{0, 7},   // [9 12 0]
		{0, 4},   // [12 0 0]
		{0, 0},   // [0 0 0]
	}
	for i, s := range steps {
		if got := m.Update(s.in); math.Abs(got-s.want) > 1e-12 {
			t.Errorf("step %d: Update(%v) = %v, want %v", i, s.in, got, s.want)
		}
	}
}

func TestMovingAverageReset(t *testing.T) {
	m := NewMovingAverage(4)
	for i := 0; i < 10; i++ {
		m.Update(float64(i))
	}
	m.Reset()
	if got := m.Update(42); got != 42 {
		t.Errorf("after reset first sample = %v, want 42", got)
	}
}

func TestMovingAveragePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMovingAverage(0) did not panic")
		}
	}()
	NewMovingAverage(0)
}

func TestMovingAverageBoundsProperty(t *testing.T) {
	// Output is always within [min, max] of the inputs seen in the window.
	f := func(raw []float64) bool {
		m := NewMovingAverage(5)
		var lastFive []float64
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			x = math.Mod(x, 1e9)
			lastFive = append(lastFive, x)
			if len(lastFive) > 5 {
				lastFive = lastFive[1:]
			}
			got := m.Update(x)
			lo, hi := lastFive[0], lastFive[0]
			for _, v := range lastFive {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if got < lo-1e-6 || got > hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMAPredictorTracksMean(t *testing.T) {
	p := NewMAPredictor(4)
	var got float64
	for i := 0; i < 20; i++ {
		got = p.Observe(0.7)
	}
	if math.Abs(got-0.7) > 1e-12 {
		t.Errorf("predictor = %v, want 0.7", got)
	}
}

func TestMAPredictorFiltersNoise(t *testing.T) {
	// Alternating +/-1 noise around 0.5 should predict close to 0.5.
	p := NewMAPredictor(10)
	var got float64
	for i := 0; i < 100; i++ {
		x := 0.5
		if i%2 == 0 {
			x += 0.1
		} else {
			x -= 0.1
		}
		got = p.Observe(x)
	}
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("noisy prediction = %v, want ~0.5", got)
	}
}
