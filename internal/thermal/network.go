package thermal

import (
	"fmt"

	"repro/internal/units"
)

// Network is a general lumped thermal RC network under the thermal ⇄
// electrical duality of [18] (HotSpot): temperatures are node voltages,
// heat flows are currents, thermal resistances are resistors and thermal
// capacitances are grounded capacitors. Each node obeys
//
//	C_i dT_i/dt = P_i + Σ_j (T_j - T_i)/R_ij + (T_amb - T_i)/R_i,amb
//
// integrated with classic RK4. The two-node Server model is a special case;
// the tests cross-validate the fast exponential stepping against this
// general integrator, and multi-core scenarios use it directly.
//
// Step is allocation-free after the first call: the coupling matrix is
// compiled into a flat CSR-style neighbor list so derivatives costs
// O(edges) instead of O(n²), and the RK4 substep count (a function of the
// smallest node time constant) is cached and recomputed only when the
// topology, a capacitance, or a conductance changes — not on every Step.
type Network struct {
	n        int
	names    []string
	caps     []units.JPerK
	temps    []units.Celsius
	ambient  units.Celsius
	ambCond  []float64   // conductance to ambient per node (1/R), 0 = none
	cond     [][]float64 // symmetric node-to-node conductances (source of truth)
	loads    []units.Watt
	deriv    []float64 // scratch buffers for RK4
	k1, k2   []float64
	k3, k4   []float64
	tmp      []float64
	tempsBuf []float64

	// Compiled hot-path state, rebuilt lazily from cond/caps/ambCond.
	invCaps  []float64 // 1 / C_i
	nbrStart []int     // CSR row offsets into nbrIdx/nbrG (len n+1)
	nbrIdx   []int     // neighbor node indices
	nbrG     []float64 // neighbor conductances
	rowG     []float64 // Σ_j cond[i][j], for O(n) time-constant refresh
	tauMin   float64   // cached smallest C_i / G_i
	csrDirty bool      // node-to-node topology or conductance changed
	tauDirty bool      // any quantity feeding tauMin changed
}

// NewNetwork creates a network of n isolated nodes at the given ambient
// temperature. Nodes start at ambient with unit capacitance and no
// couplings.
func NewNetwork(n int, ambient units.Celsius) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("thermal: network size %d < 1", n)
	}
	net := &Network{
		n:        n,
		names:    make([]string, n),
		caps:     make([]units.JPerK, n),
		temps:    make([]units.Celsius, n),
		ambient:  ambient,
		ambCond:  make([]float64, n),
		cond:     make([][]float64, n),
		loads:    make([]units.Watt, n),
		deriv:    make([]float64, n),
		k1:       make([]float64, n),
		k2:       make([]float64, n),
		k3:       make([]float64, n),
		k4:       make([]float64, n),
		tmp:      make([]float64, n),
		tempsBuf: make([]float64, n),
		invCaps:  make([]float64, n),
		nbrStart: make([]int, n+1),
		rowG:     make([]float64, n),
		csrDirty: true,
		tauDirty: true,
	}
	for i := 0; i < n; i++ {
		net.names[i] = fmt.Sprintf("node%d", i)
		net.caps[i] = 1
		net.invCaps[i] = 1
		net.temps[i] = ambient
		net.cond[i] = make([]float64, n)
	}
	return net, nil
}

// SetName labels node i.
func (net *Network) SetName(i int, name string) { net.names[i] = name }

// SetCapacitance sets node i's thermal capacitance.
// Non-positive values error.
func (net *Network) SetCapacitance(i int, c units.JPerK) error {
	if c <= 0 {
		return fmt.Errorf("thermal: non-positive capacitance %v for node %d", c, i)
	}
	net.caps[i] = c
	net.invCaps[i] = 1 / float64(c)
	net.tauDirty = true
	return nil
}

// Connect couples nodes i and j with thermal resistance r (symmetric).
// Non-positive r or i == j errors.
func (net *Network) Connect(i, j int, r units.KPerW) error {
	if i == j {
		return fmt.Errorf("thermal: self-coupling of node %d", i)
	}
	if r <= 0 {
		return fmt.Errorf("thermal: non-positive resistance %v between %d and %d", r, i, j)
	}
	g := 1 / float64(r)
	net.cond[i][j] = g
	net.cond[j][i] = g
	net.csrDirty = true
	net.tauDirty = true
	return nil
}

// ConnectAmbient couples node i to ambient with resistance r. The sink
// node's ambient resistance is updated every step as the fan speed changes;
// only the (cheap, O(n)) time-constant cache is refreshed for it, not the
// neighbor list.
func (net *Network) ConnectAmbient(i int, r units.KPerW) error {
	if r <= 0 {
		return fmt.Errorf("thermal: non-positive ambient resistance %v for node %d", r, i)
	}
	g := 1 / float64(r)
	if g != net.ambCond[i] {
		net.ambCond[i] = g
		net.tauDirty = true
	}
	return nil
}

// SetLoad sets the heat injected into node i.
func (net *Network) SetLoad(i int, p units.Watt) { net.loads[i] = p }

// Temperature returns node i's temperature.
func (net *Network) Temperature(i int) units.Celsius { return net.temps[i] }

// compile rebuilds the CSR neighbor list and per-row conductance sums from
// the dense coupling matrix. Called lazily; the scratch slices are reused
// so steady-state stepping allocates only when the edge count grows.
func (net *Network) compile() {
	edges := 0
	for i := 0; i < net.n; i++ {
		for j := 0; j < net.n; j++ {
			if net.cond[i][j] != 0 {
				edges++
			}
		}
	}
	if cap(net.nbrIdx) < edges {
		net.nbrIdx = make([]int, edges)
		net.nbrG = make([]float64, edges)
	}
	net.nbrIdx = net.nbrIdx[:edges]
	net.nbrG = net.nbrG[:edges]
	k := 0
	for i := 0; i < net.n; i++ {
		net.nbrStart[i] = k
		sum := 0.0
		for j := 0; j < net.n; j++ {
			if g := net.cond[i][j]; g != 0 {
				net.nbrIdx[k] = j
				net.nbrG[k] = g
				sum += g
				k++
			}
		}
		net.rowG[i] = sum
	}
	net.nbrStart[net.n] = k
	net.csrDirty = false
}

// refreshTau recomputes the cached smallest time constant from the compiled
// row sums in O(n).
func (net *Network) refreshTau() {
	minTau := 1e18
	for i := 0; i < net.n; i++ {
		g := net.rowG[i] + net.ambCond[i]
		if g == 0 {
			continue
		}
		tau := float64(net.caps[i]) / g
		if tau < minTau {
			minTau = tau
		}
	}
	if minTau == 1e18 {
		minTau = 1 // fully disconnected network: any step is exact
	}
	net.tauMin = minTau
	net.tauDirty = false
}

// derivatives fills out with dT/dt for the state in temps.
func (net *Network) derivatives(temps, out []float64) {
	amb := float64(net.ambient)
	for i := 0; i < net.n; i++ {
		q := float64(net.loads[i])
		ti := temps[i]
		for k := net.nbrStart[i]; k < net.nbrStart[i+1]; k++ {
			q += (temps[net.nbrIdx[k]] - ti) * net.nbrG[k]
		}
		if g := net.ambCond[i]; g != 0 {
			q += (amb - ti) * g
		}
		out[i] = q * net.invCaps[i]
	}
}

// Step advances the network by dt using RK4. For accuracy dt should be a
// fraction of the smallest time constant; Step subdivides automatically so
// callers may pass any positive dt. It errors on non-positive dt.
func (net *Network) Step(dt units.Seconds) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dt)
	}
	if net.csrDirty {
		net.compile()
	}
	if net.tauDirty {
		net.refreshTau()
	}
	// Subdivide: RK4 is stable up to roughly dt ~ 2.8*tau_min; stay well
	// under at tau_min/4 for accuracy.
	sub := 1
	if h := float64(dt); h > net.tauMin/4 {
		sub = int(h/(net.tauMin/4)) + 1
	}
	h := float64(dt) / float64(sub)
	x := net.tempsBuf
	for i := range net.temps {
		x[i] = float64(net.temps[i])
	}
	tmp := net.tmp
	for s := 0; s < sub; s++ {
		net.derivatives(x, net.k1)
		for i := range tmp {
			tmp[i] = x[i] + h/2*net.k1[i]
		}
		net.derivatives(tmp, net.k2)
		for i := range tmp {
			tmp[i] = x[i] + h/2*net.k2[i]
		}
		net.derivatives(tmp, net.k3)
		for i := range tmp {
			tmp[i] = x[i] + h*net.k3[i]
		}
		net.derivatives(tmp, net.k4)
		for i := range x {
			x[i] += h / 6 * (net.k1[i] + 2*net.k2[i] + 2*net.k3[i] + net.k4[i])
		}
	}
	for i := range net.temps {
		net.temps[i] = units.Celsius(x[i])
	}
	return nil
}

// SteadyState solves the linear steady-state system (dT/dt = 0) by
// Gauss-Seidel iteration and returns the node temperatures. It errors when
// iteration fails to converge, which indicates a node with no path to
// ambient carrying nonzero load.
//
//lint:ignore testonly analytic reference for TestNetworkSteadyStateMatchesAnalytic and TestNetworkStepConvergesToSteadyState
func (net *Network) SteadyState() ([]units.Celsius, error) {
	if net.csrDirty {
		net.compile()
	}
	x := make([]float64, net.n)
	for i := range x {
		x[i] = float64(net.temps[i])
	}
	const maxIter = 200000
	const tol = 1e-10
	for iter := 0; iter < maxIter; iter++ {
		maxStep := 0.0
		for i := 0; i < net.n; i++ {
			g := net.ambCond[i] + net.rowG[i]
			rhs := float64(net.loads[i]) + net.ambCond[i]*float64(net.ambient)
			for k := net.nbrStart[i]; k < net.nbrStart[i+1]; k++ {
				rhs += net.nbrG[k] * x[net.nbrIdx[k]]
			}
			if g == 0 {
				if net.loads[i] != 0 {
					return nil, fmt.Errorf("thermal: node %d has load but no thermal path", i)
				}
				continue
			}
			nv := rhs / g
			if d := nv - x[i]; d > maxStep {
				maxStep = d
			} else if -d > maxStep {
				maxStep = -d
			}
			x[i] = nv
		}
		if maxStep < tol {
			out := make([]units.Celsius, net.n)
			for i := range out {
				out[i] = units.Celsius(x[i])
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("thermal: steady-state iteration did not converge")
}
