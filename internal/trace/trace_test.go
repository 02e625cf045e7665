package trace

import (
	"math"
	"testing"
)

func TestAppendMonotonic(t *testing.T) {
	s := NewSeries("x", 0)
	if err := s.Append(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 3); err != nil { // equal timestamps allowed
		t.Fatal(err)
	}
	if err := s.Append(0.5, 4); err == nil {
		t.Error("out-of-order append accepted")
	}
	if err := s.Append(math.NaN(), 0); err == nil {
		t.Error("NaN timestamp accepted")
	}
	if len(s.T) != 3 || len(s.V) != 3 {
		t.Errorf("len = %d/%d, want 3", len(s.T), len(s.V))
	}
}

func TestMustAppendPanics(t *testing.T) {
	s := NewSeries("x", 0)
	s.MustAppend(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend out of order did not panic")
		}
	}()
	s.MustAppend(4, 1)
}

func TestValueAtZeroOrderHold(t *testing.T) {
	s := Series{Name: "x", T: []float64{10, 20, 30}, V: []float64{1, 2, 3}}
	tests := []struct {
		t    float64
		want float64
		ok   bool
	}{
		{5, 0, false},
		{10, 1, true},
		{15, 1, true},
		{20, 2, true},
		{29.9, 2, true},
		{30, 3, true},
		{100, 3, true},
	}
	for _, tt := range tests {
		got, ok := s.ValueAt(tt.t)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("ValueAt(%v) = %v, %v, want %v, %v", tt.t, got, ok, tt.want, tt.ok)
		}
	}
}

func TestWindow(t *testing.T) {
	s := Series{Name: "x", T: []float64{0, 1, 2, 3, 4}, V: []float64{0, 1, 2, 3, 4}}
	w := s.Window(1, 3)
	if len(w.T) != 3 || w.T[0] != 1 || w.T[2] != 3 || w.V[2] != 3 {
		t.Errorf("Window = %+v", w)
	}
	// Mutating the window must not affect the original.
	w.MustAppend(10, 99)
	w.V[0] = -1
	if len(s.T) != 5 || s.V[1] != 1 {
		t.Error("window shares storage with parent")
	}
}

func TestCrossings(t *testing.T) {
	s := Series{Name: "x", T: []float64{0, 1, 2, 3, 4}, V: []float64{0, 2, 0, 2, 0}}
	xs := s.Crossings(1)
	if len(xs) != 4 {
		t.Fatalf("Crossings = %v, want 4 crossings", xs)
	}
	wants := []float64{0.5, 1.5, 2.5, 3.5}
	for i, w := range wants {
		if math.Abs(xs[i]-w) > 1e-12 {
			t.Errorf("crossing %d = %v, want %v", i, xs[i], w)
		}
	}
}

func TestCrossingsTouch(t *testing.T) {
	s := Series{Name: "x", T: []float64{0, 1, 2}, V: []float64{0, 1, 0}}
	xs := s.Crossings(1)
	if len(xs) != 1 || xs[0] != 1 {
		t.Errorf("touch crossing = %v, want [1]", xs)
	}
}

func TestSettlingTime(t *testing.T) {
	// Signal: outside band until t=3, then inside.
	s := Series{Name: "x",
		T: []float64{0, 1, 2, 3, 4, 5},
		V: []float64{10, 8, 6, 5.2, 4.9, 5.1}}
	got, ok := s.SettlingTime(5, 0.5)
	if !ok || got != 3 {
		t.Errorf("SettlingTime = %v, %v, want 3, true", got, ok)
	}
	// Never settles.
	s2 := Series{Name: "x", T: []float64{0, 1}, V: []float64{0, 10}}
	if _, ok := s2.SettlingTime(5, 0.5); ok {
		t.Error("non-settling series reported settled")
	}
	// Settles immediately.
	s3 := Series{Name: "x", T: []float64{0, 1}, V: []float64{5, 5}}
	if got, ok := s3.SettlingTime(5, 0.5); !ok || got != 0 {
		t.Errorf("immediate settle = %v, %v", got, ok)
	}
}

// TestSetGet: Get finds a series by name in set order and returns a
// pointer into the set, so appends through it are the set's own.
func TestSetGet(t *testing.T) {
	st := Set{NewSeries("a", 1), NewSeries("b", 1)}
	st.Get("b").MustAppend(0, 9)
	if len(st[1].V) != 1 || st[1].V[0] != 9 {
		t.Errorf("append through Get did not reach the set: %+v", st[1])
	}
	if got := st.Get("a"); got != &st[0] {
		t.Error("Get(a) does not point at the set's first element")
	}
	if st.Get("missing") != nil {
		t.Error("missing series should be nil")
	}
	if Set(nil).Get("a") != nil {
		t.Error("nil set should find nothing")
	}
}
