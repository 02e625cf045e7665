package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestSteadyState(t *testing.T) {
	// Eq. 3: T_ss = T_amb + R * P
	if got := SteadyState(25, 0.26, 140.8); math.Abs(float64(got)-(25+0.26*140.8)) > 1e-12 {
		t.Errorf("SteadyState = %v", got)
	}
}

func TestNodeConvergesToSteadyState(t *testing.T) {
	n := NewNode(25)
	// tau = 0.2*300 = 60 s; after 10 tau the node is at steady state.
	for i := 0; i < 600; i++ {
		n.Step(25, 0.2, 300, 100, 1)
	}
	want := SteadyState(25, 0.2, 100) // 45
	if math.Abs(float64(n.Temperature()-want)) > 1e-3 {
		t.Errorf("converged to %v, want %v", n.Temperature(), want)
	}
}

func TestNodeExactExponential(t *testing.T) {
	// One step of the exact solution must match the closed form whatever
	// the step size, including steps much larger than tau.
	n := NewNode(80)
	got := n.Step(25, 0.5, 100, 0, 200) // tau = 50, dt = 200
	want := 25 + (80-25)*math.Exp(-200.0/50)
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("Step = %v, want %v", got, want)
	}
}

func TestNodeStepSizeInvariance(t *testing.T) {
	// The exact integrator gives identical results for one big step and
	// many small steps under constant input.
	big := NewNode(30)
	big.Step(25, 0.3, 200, 150, 60)
	small := NewNode(30)
	for i := 0; i < 60; i++ {
		small.Step(25, 0.3, 200, 150, 1)
	}
	if math.Abs(float64(big.Temperature()-small.Temperature())) > 1e-9 {
		t.Errorf("big step %v != many small steps %v", big.Temperature(), small.Temperature())
	}
}

func TestNodeMonotoneApproachProperty(t *testing.T) {
	// Under constant input the temperature approaches steady state
	// monotonically and never overshoots (first-order system).
	f := func(t0raw, praw float64) bool {
		if math.IsNaN(t0raw) || math.IsInf(t0raw, 0) || math.IsNaN(praw) || math.IsInf(praw, 0) {
			return true
		}
		t0 := units.Celsius(math.Mod(t0raw, 150))
		p := units.Watt(math.Mod(math.Abs(praw), 300))
		n := NewNode(t0)
		ss := SteadyState(25, 0.2, p)
		prevDist := math.Abs(float64(t0 - ss))
		for i := 0; i < 50; i++ {
			n.Step(25, 0.2, 100, p, 1)
			dist := math.Abs(float64(n.Temperature() - ss))
			if dist > prevDist+1e-9 {
				return false
			}
			prevDist = dist
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodeZeroStepIsIdentity(t *testing.T) {
	n := NewNode(55)
	if got := n.Step(25, 0.2, 100, 100, 0); got != 55 {
		t.Errorf("zero step moved temperature to %v", got)
	}
}

func TestNodePanicsOnBadParams(t *testing.T) {
	cases := []struct {
		name string
		r    units.KPerW
		c    units.JPerK
		dt   units.Seconds
	}{
		{"zero R", 0, 100, 1},
		{"negative R", -1, 100, 1},
		{"zero C", 0.1, 0, 1},
		{"negative dt", 0.1, 100, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			NewNode(25).Step(25, tc.r, tc.c, 100, tc.dt)
		})
	}
}

func TestTimeConstantAndCapacitanceFor(t *testing.T) {
	c, err := CapacitanceFor(60, 0.2)
	if err != nil || c != 300 {
		t.Errorf("CapacitanceFor = %v, %v, want 300", c, err)
	}
	if _, err := CapacitanceFor(0, 0.2); err == nil {
		t.Error("zero tau accepted")
	}
	if _, err := CapacitanceFor(60, 0); err == nil {
		t.Error("zero R accepted")
	}
}

func TestTableIDerivedSinkCapacitance(t *testing.T) {
	// C_hs = 60 s / R_hs(8500 rpm) ~ 348 J/K.
	law := TableIHeatSinkLaw()
	c, err := CapacitanceFor(60, law.Resistance(8500))
	if err != nil {
		t.Fatal(err)
	}
	if float64(c) < 330 || float64(c) > 360 {
		t.Errorf("C_hs = %v, want ~348", c)
	}
}

func TestSetTemperature(t *testing.T) {
	n := NewNode(25)
	n.SetTemperature(90)
	if n.Temperature() != 90 {
		t.Error("SetTemperature did not take")
	}
}
