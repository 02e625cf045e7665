package thermal

import (
	"math"
	"testing"

	"repro/internal/units"
)

func buildTwoNode(t *testing.T) *Network {
	t.Helper()
	net, err := NewNetwork(2, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetCapacitance(0, 0.8333); err != nil { // die: tau 0.1 at R 0.12
		t.Fatal(err)
	}
	if err := net.SetCapacitance(1, 348); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(0, 1, 0.12); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectAmbient(1, 0.2); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0, 25); err == nil {
		t.Error("zero-node network accepted")
	}
	net, _ := NewNetwork(2, 25)
	if err := net.SetCapacitance(0, 0); err == nil {
		t.Error("zero capacitance accepted")
	}
	if err := net.Connect(0, 0, 1); err == nil {
		t.Error("self-coupling accepted")
	}
	if err := net.Connect(0, 1, 0); err == nil {
		t.Error("zero resistance accepted")
	}
	if err := net.ConnectAmbient(0, -1); err == nil {
		t.Error("negative ambient resistance accepted")
	}
	if err := net.Step(0); err == nil {
		t.Error("zero step accepted")
	}
}

func TestNetworkNames(t *testing.T) {
	net, _ := NewNetwork(2, 25)
	if net.names[0] != "node0" {
		t.Errorf("default name = %q", net.names[0])
	}
	net.SetName(0, "die")
	if net.names[0] != "die" {
		t.Error("SetName did not take")
	}
	if net.n != 2 {
		t.Errorf("size = %d", net.n)
	}
}

func TestNetworkSteadyStateMatchesAnalytic(t *testing.T) {
	net := buildTwoNode(t)
	net.SetLoad(0, 100)
	ss, err := net.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	// All 100 W flows die -> sink -> ambient:
	// T_sink = 25 + 0.2*100 = 45, T_die = 45 + 0.12*100 = 57.
	if math.Abs(float64(ss[1])-45) > 1e-6 {
		t.Errorf("sink steady = %v, want 45", ss[1])
	}
	if math.Abs(float64(ss[0])-57) > 1e-6 {
		t.Errorf("die steady = %v, want 57", ss[0])
	}
}

func TestNetworkStepConvergesToSteadyState(t *testing.T) {
	net := buildTwoNode(t)
	net.SetLoad(0, 100)
	want, err := net.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ { // ~20 tau_sink
		if err := net.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if d := math.Abs(float64(net.Temperature(i) - want[i])); d > 0.01 {
			t.Errorf("node %d = %v, want %v (diff %v)", i, net.Temperature(i), want[i], d)
		}
	}
}

func TestNetworkStepSubdividesStiffSystems(t *testing.T) {
	// A huge dt against the 0.1 s die time constant must not explode.
	net := buildTwoNode(t)
	net.SetLoad(0, 160)
	if err := net.Step(100); err != nil {
		t.Fatal(err)
	}
	if d := float64(net.Temperature(0)); math.IsNaN(d) || d < 25 || d > 120 {
		t.Errorf("stiff step produced %v", d)
	}
}

func TestNetworkEnergyConservationSingleNode(t *testing.T) {
	// Single node, known closed form: exact exponential approach.
	net, _ := NewNetwork(1, 20)
	if err := net.SetCapacitance(0, 50); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectAmbient(0, 0.5); err != nil {
		t.Fatal(err)
	}
	net.SetLoad(0, 60)
	// tau = 25 s, T_ss = 20 + 30 = 50.
	if err := net.Step(25); err != nil {
		t.Fatal(err)
	}
	want := 50 + (20-50)*math.Exp(-1)
	if math.Abs(float64(net.Temperature(0))-want) > 0.01 {
		t.Errorf("after one tau: %v, want %v", net.Temperature(0), want)
	}
}

func TestNetworkIsolatedLoadedNodeFailsSteadyState(t *testing.T) {
	net, _ := NewNetwork(1, 25)
	net.SetLoad(0, 10)
	if _, err := net.SteadyState(); err == nil {
		t.Error("steady state of loaded isolated node accepted")
	}
}

func TestNetworkDisconnectedUnloadedNodeOK(t *testing.T) {
	net, _ := NewNetwork(2, 25)
	if err := net.ConnectAmbient(0, 1); err != nil {
		t.Fatal(err)
	}
	net.SetLoad(0, 10)
	ss, err := net.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(ss[0])-35) > 1e-6 {
		t.Errorf("loaded node = %v, want 35", ss[0])
	}
	if ss[1] != 25 {
		t.Errorf("isolated node moved to %v", ss[1])
	}
	// Stepping a disconnected node holds its temperature.
	if err := net.Step(10); err != nil {
		t.Fatal(err)
	}
	if net.Temperature(1) != 25 {
		t.Errorf("disconnected node drifted to %v", net.Temperature(1))
	}
}

func TestNetworkMultiCoreLateralCoupling(t *testing.T) {
	// Four cores on a shared sink: unevenly loaded cores must order their
	// temperatures by load, and lateral spreading pulls them together.
	const ncore = 4
	net, err := NewNetwork(ncore+1, 25) // nodes 0..3 cores, 4 sink
	if err != nil {
		t.Fatal(err)
	}
	sink := ncore
	if err := net.SetCapacitance(sink, 348); err != nil {
		t.Fatal(err)
	}
	if err := net.ConnectAmbient(sink, 0.2); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < ncore; c++ {
		if err := net.SetCapacitance(c, 0.8333); err != nil {
			t.Fatal(err)
		}
		if err := net.Connect(c, sink, 0.48); err != nil { // 4 cores in parallel ~ 0.12
			t.Fatal(err)
		}
	}
	// Ring lateral coupling.
	for c := 0; c < ncore; c++ {
		if err := net.Connect(c, (c+1)%ncore, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	loads := []units.Watt{50, 30, 20, 10}
	for c, p := range loads {
		net.SetLoad(c, p)
	}
	ss, err := net.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < ncore; c++ {
		if ss[c] >= ss[c-1] {
			t.Errorf("core %d (%v) not cooler than core %d (%v)", c, ss[c], c-1, ss[c-1])
		}
	}
	// Total heat must flow through the sink: T_sink = 25 + 0.2*110 = 47.
	if math.Abs(float64(ss[sink])-47) > 1e-6 {
		t.Errorf("sink = %v, want 47", ss[sink])
	}
	// RK4 stepping should converge to the same fixed point.
	for i := 0; i < 2000; i++ {
		if err := net.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= ncore; i++ {
		if d := math.Abs(float64(net.Temperature(i) - ss[i])); d > 0.05 {
			t.Errorf("node %d stepped to %v, steady %v", i, net.Temperature(i), ss[i])
		}
	}
}

// TestNetworkCacheInvalidation: mutating topology, capacitance, or an
// ambient coupling after stepping must produce the same trajectory as a
// fresh network built in the final configuration — the compiled neighbor
// list and cached substep count may never serve stale values.
func TestNetworkCacheInvalidation(t *testing.T) {
	build := func() *Network {
		net, err := NewNetwork(3, 25)
		if err != nil {
			t.Fatal(err)
		}
		mustOK(t, net.SetCapacitance(0, 10))
		mustOK(t, net.SetCapacitance(1, 20))
		mustOK(t, net.SetCapacitance(2, 200))
		mustOK(t, net.Connect(0, 2, 0.5))
		mustOK(t, net.ConnectAmbient(2, 0.1))
		net.SetLoad(0, 50)
		return net
	}

	// Mutated path: step (compiling the caches), then rewire.
	net := build()
	for i := 0; i < 20; i++ {
		mustOK(t, net.Step(1))
	}
	mustOK(t, net.Connect(1, 2, 0.25))     // new edge after stepping
	mustOK(t, net.SetCapacitance(0, 2))    // much stiffer node
	mustOK(t, net.ConnectAmbient(2, 0.05)) // stronger ambient coupling

	// Fresh path: identical final configuration, state forced to match.
	fresh := build()
	mustOK(t, fresh.Connect(1, 2, 0.25))
	mustOK(t, fresh.SetCapacitance(0, 2))
	mustOK(t, fresh.ConnectAmbient(2, 0.05))
	for i := 0; i < 3; i++ {
		fresh.temps[i] = net.Temperature(i)
	}

	for i := 0; i < 50; i++ {
		mustOK(t, net.Step(1))
		mustOK(t, fresh.Step(1))
	}
	for i := 0; i < 3; i++ {
		if got, want := float64(net.Temperature(i)), float64(fresh.Temperature(i)); got != want {
			t.Errorf("node %d: mutated-network temperature %v != fresh-network %v (stale cache?)", i, got, want)
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
