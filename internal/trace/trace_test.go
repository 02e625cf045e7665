package trace

import (
	"math"
	"testing"
)

func TestAppendMonotonic(t *testing.T) {
	s := NewSeries("x")
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
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestMustAppendPanics(t *testing.T) {
	s := NewSeries("x")
	s.MustAppend(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend out of order did not panic")
		}
	}()
	s.MustAppend(4, 1)
}

func TestFromSlices(t *testing.T) {
	s, err := FromSlices("u", []float64{0, 1, 2}, []float64{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.At(1).V != 6 {
		t.Errorf("bad series: %+v", s)
	}
	if _, err := FromSlices("u", []float64{0}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatched slices err = %v", err)
	}
}

func TestValueAtZeroOrderHold(t *testing.T) {
	s, _ := FromSlices("x", []float64{10, 20, 30}, []float64{1, 2, 3})
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
	s, _ := FromSlices("x", []float64{0, 1, 2, 3, 4}, []float64{0, 1, 2, 3, 4})
	w := s.Window(1, 3)
	if w.Len() != 3 || w.At(0).T != 1 || w.At(2).T != 3 {
		t.Errorf("Window = %+v", w)
	}
	// Mutating the window must not affect the original.
	w.MustAppend(10, 99)
	if s.Len() != 5 {
		t.Error("window shares storage with parent")
	}
}

func TestCrossings(t *testing.T) {
	s, _ := FromSlices("x", []float64{0, 1, 2, 3, 4}, []float64{0, 2, 0, 2, 0})
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
	s, _ := FromSlices("x", []float64{0, 1, 2}, []float64{0, 1, 0})
	xs := s.Crossings(1)
	if len(xs) != 1 || xs[0] != 1 {
		t.Errorf("touch crossing = %v, want [1]", xs)
	}
}

func TestSettlingTime(t *testing.T) {
	// Signal: outside band until t=3, then inside.
	s, _ := FromSlices("x",
		[]float64{0, 1, 2, 3, 4, 5},
		[]float64{10, 8, 6, 5.2, 4.9, 5.1})
	got, ok := s.SettlingTime(5, 0.5)
	if !ok || got != 3 {
		t.Errorf("SettlingTime = %v, %v, want 3, true", got, ok)
	}
	// Never settles.
	s2, _ := FromSlices("x", []float64{0, 1}, []float64{0, 10})
	if _, ok := s2.SettlingTime(5, 0.5); ok {
		t.Error("non-settling series reported settled")
	}
	// Settles immediately.
	s3, _ := FromSlices("x", []float64{0, 1}, []float64{5, 5})
	if got, ok := s3.SettlingTime(5, 0.5); !ok || got != 0 {
		t.Errorf("immediate settle = %v, %v", got, ok)
	}
}

func TestSetOrderAndReplace(t *testing.T) {
	st := NewSet()
	st.Add(NewSeries("a"))
	st.Add(NewSeries("b"))
	replacement := NewSeries("a")
	replacement.MustAppend(0, 9)
	st.Add(replacement)
	names := st.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if st.Get("a").Len() != 1 {
		t.Error("replacement did not take effect")
	}
	if st.Get("missing") != nil {
		t.Error("missing series should be nil")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
}
