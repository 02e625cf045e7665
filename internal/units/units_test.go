package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
		{7, 7, 7, 7},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v, %v, %v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampPanicsOnReversedInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clamp(0, 10, 0) did not panic")
		}
	}()
	Clamp(0, 10, 0)
}

func TestClampPropertyInRange(t *testing.T) {
	f := func(v, a, b float64) bool {
		if !IsFinite(v) || !IsFinite(a) || !IsFinite(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampPropertyIdempotent(t *testing.T) {
	f := func(v, a, b float64) bool {
		if !IsFinite(v) || !IsFinite(a) || !IsFinite(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		once := Clamp(v, lo, hi)
		return Clamp(once, lo, hi) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampRPM(t *testing.T) {
	if got := ClampRPM(500, 1000, 8500); got != 1000 {
		t.Errorf("ClampRPM(500) = %v, want 1000", got)
	}
	if got := ClampRPM(9000, 1000, 8500); got != 8500 {
		t.Errorf("ClampRPM(9000) = %v, want 8500", got)
	}
}

func TestClampUtil(t *testing.T) {
	if got := ClampUtil(-0.5); got != 0 {
		t.Errorf("ClampUtil(-0.5) = %v", got)
	}
	if got := ClampUtil(1.5); got != 1 {
		t.Errorf("ClampUtil(1.5) = %v", got)
	}
	if got := ClampUtil(0.42); got != 0.42 {
		t.Errorf("ClampUtil(0.42) = %v", got)
	}
}

func TestLerpEndpoints(t *testing.T) {
	if Lerp(2, 10, 0) != 2 {
		t.Error("Lerp t=0 is not a")
	}
	if Lerp(2, 10, 1) != 10 {
		t.Error("Lerp t=1 is not b")
	}
	if Lerp(2, 10, 0.5) != 6 {
		t.Error("Lerp midpoint wrong")
	}
}

func TestIsFinite(t *testing.T) {
	if IsFinite(math.NaN()) {
		t.Error("NaN is finite")
	}
	if IsFinite(math.Inf(1)) || IsFinite(math.Inf(-1)) {
		t.Error("Inf is finite")
	}
	if !IsFinite(0) || !IsFinite(-1e308) {
		t.Error("finite values rejected")
	}
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Celsius(74.95).String(), "75.0°C"},
		{RPM(8500).String(), "8500rpm"},
		{Watt(29.4).String(), "29.40W"},
		{Joule(12.34).String(), "12.3J"},
		{Utilization(0.7).String(), "70.0%"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-9, 1e-6) {
		t.Error("close values not approx equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-6) {
		t.Error("distant values approx equal")
	}
}
