package thermal

import (
	"math"
	"testing"

	"repro/internal/units"
)

// testParams returns the Table I model as sim.Default calibrates it: a
// 60 s sink time constant at 8500 rpm, a 0.1 s die time constant and
// R_die = 0.12 K/W.
func testParams(t *testing.T) ServerParams {
	t.Helper()
	law := TableIHeatSinkLaw()
	sinkCap, err := CapacitanceFor(60, law.Resistance(8500))
	if err != nil {
		t.Fatal(err)
	}
	dieCap, err := CapacitanceFor(0.1, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	return ServerParams{
		Law:     law,
		SinkCap: sinkCap,
		DieRes:  0.12,
		DieCap:  dieCap,
		Ambient: 25,
	}
}

func TestServerValidation(t *testing.T) {
	good := testParams(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	cases := []func(*ServerParams){
		func(p *ServerParams) { p.Law.A = 0 },
		func(p *ServerParams) { p.SinkCap = 0 },
		func(p *ServerParams) { p.DieRes = -1 },
		func(p *ServerParams) { p.DieCap = 0 },
		func(p *ServerParams) { p.Ambient = 150 },
		func(p *ServerParams) { p.Ambient = -100 },
	}
	for i, mutate := range cases {
		p := testParams(t)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
		if _, err := NewServer(p); err == nil {
			t.Errorf("case %d: NewServer accepted invalid params", i)
		}
	}
}

func TestServerStartsAtAmbient(t *testing.T) {
	s, err := NewServer(testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Sink() != 25 || s.Junction() != 25 {
		t.Errorf("initial temps = %v, %v, want ambient", s.Sink(), s.Junction())
	}
}

func TestServerConvergesToSteadyJunction(t *testing.T) {
	s, _ := NewServer(testParams(t))
	p := units.Watt(140.8) // u = 0.7
	v := units.RPM(2000)
	for i := 0; i < 3000; i++ { // 3000 s >> 10 * tau_hs(2000rpm) ~ 900 s
		s.Step(p, v, 1)
	}
	want := s.SteadyJunction(p, v)
	if math.Abs(float64(s.Junction()-want)) > 0.01 {
		t.Errorf("junction = %v, want steady %v", s.Junction(), want)
	}
	// Calibration anchor: ~78.5 C at 2000 rpm / u = 0.7.
	if float64(want) < 76 || float64(want) > 81 {
		t.Errorf("steady junction at 2000rpm/0.7 = %v, want ~78.5", want)
	}
}

func TestServerFanAuthority(t *testing.T) {
	// Higher fan speed must strictly lower the steady junction temperature.
	s, _ := NewServer(testParams(t))
	p := units.Watt(140.8)
	prev := s.SteadyJunction(p, 1000)
	for _, v := range []units.RPM{2000, 3000, 4000, 6000, 8500} {
		cur := s.SteadyJunction(p, v)
		if cur >= prev {
			t.Errorf("SteadyJunction(%v) = %v, not below %v", v, cur, prev)
		}
		prev = cur
	}
	// Calibration anchor: ~67.8 C at 6000 rpm / u = 0.7.
	if tj := s.SteadyJunction(p, 6000); math.Abs(float64(tj)-67.8) > 1.5 {
		t.Errorf("T_j(6000rpm, 0.7) = %v, want ~67.8", tj)
	}
}

func TestServerDieFasterThanSink(t *testing.T) {
	// After a load step the junction must lead the sink: the die time
	// constant (0.1 s) is far below the sink's (>= 60 s).
	s, _ := NewServer(testParams(t))
	s.Step(160, 4000, 1)
	dieRise := float64(s.Junction() - 25)
	sinkRise := float64(s.Sink() - 25)
	if dieRise <= sinkRise {
		t.Errorf("die rise %v not above sink rise %v after 1 s", dieRise, sinkRise)
	}
	// One second in, the die should already carry most of its R_die * P
	// offset over the sink.
	wantOffset := 0.12 * 160
	gotOffset := float64(s.Junction() - s.Sink())
	if math.Abs(gotOffset-wantOffset) > 1 {
		t.Errorf("die-sink offset = %v, want ~%v", gotOffset, wantOffset)
	}
}

func TestSpeedForJunction(t *testing.T) {
	s, _ := NewServer(testParams(t))
	p := units.Watt(140.8)
	v, err := s.SpeedForJunction(75, p)
	if err != nil {
		t.Fatal(err)
	}
	// The returned speed must hold the target within a small margin.
	got := s.SteadyJunction(p, v)
	if math.Abs(float64(got)-75) > 0.1 {
		t.Errorf("SteadyJunction(SpeedForJunction(75)) = %v", got)
	}
	// Lower speeds must violate the target.
	if s.SteadyJunction(p, v-200) <= 75 {
		t.Error("SpeedForJunction did not return the lowest feasible speed")
	}
}

func TestSpeedForJunctionUnreachable(t *testing.T) {
	s, _ := NewServer(testParams(t))
	// Even infinite airflow cannot reach ambient+1 at 140 W.
	if _, err := s.SpeedForJunction(26, 140.8); err == nil {
		t.Error("unreachable target accepted")
	}
	if _, err := s.SpeedForJunction(75, 0); err == nil {
		t.Error("non-positive load accepted")
	}
}

func TestSpeedForJunctionEasyTargetFloors(t *testing.T) {
	s, _ := NewServer(testParams(t))
	// A very generous target at tiny load is satisfiable at the minimum
	// modeled speed.
	v, err := s.SpeedForJunction(95, 20)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Errorf("easy target speed = %v, want floor 100", v)
	}
}

func TestServerResetAndSetState(t *testing.T) {
	s, _ := NewServer(testParams(t))
	s.Step(160, 1000, 500)
	s.Reset()
	if s.Sink() != 25 || s.Junction() != 25 {
		t.Error("Reset did not return to ambient")
	}
	s.SetState(60, 75)
	if s.Sink() != 60 || s.Junction() != 75 {
		t.Error("SetState did not take")
	}
}

func TestServerSetAmbient(t *testing.T) {
	s, _ := NewServer(testParams(t))
	s.SetAmbient(35)
	if s.params.Ambient != 35 {
		t.Fatal("SetAmbient did not take")
	}
	// Steady junction shifts by exactly the ambient delta.
	a := s.SteadyJunction(100, 4000)
	s.SetAmbient(25)
	b := s.SteadyJunction(100, 4000)
	if math.Abs(float64(a-b)-10) > 1e-9 {
		t.Errorf("ambient shift = %v, want 10", a-b)
	}
}

func TestServerMatchesGeneralNetwork(t *testing.T) {
	// Cross-validation: the fast two-node quasi-static model must track
	// the general RK4 network within a tight tolerance over a transient.
	params := testParams(t)
	s, _ := NewServer(params)

	net, err := NewNetwork(2, params.Ambient)
	if err != nil {
		t.Fatal(err)
	}
	const die, sink = 0, 1
	if err := net.SetCapacitance(die, params.DieCap); err != nil {
		t.Fatal(err)
	}
	if err := net.SetCapacitance(sink, params.SinkCap); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(die, sink, params.DieRes); err != nil {
		t.Fatal(err)
	}

	v := units.RPM(3000)
	rhs := params.Law.Resistance(v)
	if err := net.ConnectAmbient(sink, rhs); err != nil {
		t.Fatal(err)
	}
	p := units.Watt(140.8)
	net.SetLoad(die, p)

	// The two-node Server feeds P through the sink equation directly
	// (quasi-static die), while the network routes the same P through the
	// die node; both have identical steady states.
	for i := 0; i < 1200; i++ {
		s.Step(p, v, 1)
		if err := net.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	diff := math.Abs(float64(s.Junction() - net.Temperature(die)))
	if diff > 0.6 {
		t.Errorf("two-node model diverges from network by %v C", diff)
	}
}
