// Package lib is a testonly testdata package: its import path lies under
// internal/, so every declaration in its non-test files needs a
// reference from non-test code. init is the package's non-test caller.
package lib

func init() {
	var s Shape = Square{Side: 2}
	set := NewSet[int]()
	set.Add(int(s.Area()))
	_ = set.Has(4)
}

// Shape is an interface the program names.
type Shape interface{ Area() float64 }

// Square is referenced by init.
type Square struct{ Side float64 }

// Area is called only through Shape: the interface exempts it.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is called only by the package's test.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want "lib.Square.Perimeter has no reference outside tests"

// Helper is called only by the package's test.
func Helper() int { return 1 } // want "lib.Helper has no reference outside tests"

// unused has no caller at all.
func unused() {} // want "lib.unused has no reference outside tests"

// fact calls only itself: a declaration's mention of itself is no reference.
func fact(n int) int { // want "lib.fact has no reference outside tests"
	if n == 0 {
		return 1
	}
	return n * fact(n-1)
}

// orphan is named only in its own method's receiver.
type orphan struct{} // want "lib.orphan has no reference outside tests"

// String is exempt: fmt calls it through an interface the program need
// not name.
func (orphan) String() string { return "orphan" }

// Set's methods are used through the instantiation Set[int].
type Set[T comparable] struct{ m map[T]bool }

// NewSet is called by init through an instantiation.
func NewSet[T comparable]() *Set[T] { return &Set[T]{m: map[T]bool{}} }

// Add is used through Set[int].
func (s *Set[T]) Add(v T) { s.m[v] = true }

// Has is used through Set[int].
func (s *Set[T]) Has(v T) bool { return s.m[v] }

// slowArea is the reference the package's test compares Square.Area
// against.
//
//lint:ignore testonly reference implementation for TestArea
func slowArea(s Square) float64 {
	a := 0.0
	for i := 0; i < int(s.Side); i++ {
		a += s.Side
	}
	return a
}
