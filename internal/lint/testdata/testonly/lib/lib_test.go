package lib

import "testing"

// TestArea gives Helper, Perimeter and slowArea their only callers.
func TestArea(t *testing.T) {
	s := Square{Side: float64(Helper() + 1)}
	if s.Area() != slowArea(s) || s.Perimeter() != 8 {
		t.Fatal("area")
	}
}
