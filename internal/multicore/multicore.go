// Package multicore extends the paper's single-socket model to the
// N-core system its Sec. III-A describes ("a server consisting of N_core
// cores"), with four cores and without the balanced-workload
// simplification: each core has its own RC node on the shared heat sink
// (general network of [18]), ringed to its neighbours, its own 8-bit/10 s
// measurement chain, and its own utilization share. On top of it sits the
// *third* local controller of the paper's introduction — the
// temperature-aware workload scheduler of the OS ([13], [14]) — whose
// interaction with the fan controller and the CPU capper is exactly the
// "two or all three of these local controllers active simultaneously"
// scenario the paper warns about.
package multicore

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// The core-level structure on top of the single-socket sim.Config, which
// supplies everything shared (fan, sink, sensing, power per socket).
const (
	// NCore is the number of cores (paper: N_core).
	NCore = 4
	// lateralRes couples ring neighbours (silicon spreading).
	lateralRes units.KPerW = 1.5
)

// Server is the four-core platform: a thermal network of NCore die nodes on
// one heat-sink node, per-core measurement pipelines, one shared fan.
type Server struct {
	cfg     sim.Config
	net     *thermal.Network
	cpu     power.CPUModel
	fan     power.FanModel
	pipes   []*sensor.Pipeline
	sinkIdx int
	fanCmd  units.RPM
	fanAct  units.RPM
	clock   units.Seconds
	started bool
	// Per-server scratch backing TickResult.Junctions/Measured: the tick
	// loop runs once per simulated second for hours, so the result slices
	// are reused rather than reallocated (see Tick's aliasing contract).
	juncBuf []units.Celsius
	measBuf []units.Celsius
}

// NewServer builds the platform on cfg with all nodes at ambient and the
// fan at its floor.
func NewServer(cfg sim.Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const n = NCore
	net, err := thermal.NewNetwork(n+1, cfg.Ambient)
	if err != nil {
		return nil, err
	}
	sinkIdx := n
	net.SetName(sinkIdx, "sink")
	sinkCap, err := thermal.CapacitanceFor(cfg.SinkTau, cfg.HeatSinkLaw.Resistance(cfg.FanMaxSpeed))
	if err != nil {
		return nil, err
	}
	if err := net.SetCapacitance(sinkIdx, sinkCap); err != nil {
		return nil, err
	}
	// Sink-to-ambient resistance is fan-speed dependent; set per tick.
	if err := net.ConnectAmbient(sinkIdx, cfg.HeatSinkLaw.Resistance(cfg.FanMinSpeed)); err != nil {
		return nil, err
	}
	// Per-core nodes: with NCore cores in parallel the effective die
	// resistance is coreRes / NCore, so a balanced load matches the
	// two-node model; the core time constant matches the single-socket
	// die (DieTau) at the per-core resistance.
	coreRes := cfg.DieRes * NCore
	coreCap, err := thermal.CapacitanceFor(cfg.DieTau, coreRes)
	if err != nil {
		return nil, err
	}
	for c := 0; c < n; c++ {
		net.SetName(c, fmt.Sprintf("core%d", c))
		if err := net.SetCapacitance(c, coreCap); err != nil {
			return nil, err
		}
		if err := net.Connect(c, sinkIdx, coreRes); err != nil {
			return nil, err
		}
	}
	for c := 0; c < n; c++ {
		if err := net.Connect(c, (c+1)%n, lateralRes); err != nil {
			return nil, err
		}
	}

	cpu, fanModel, err := cfg.Models()
	if err != nil {
		return nil, err
	}
	pipes := make([]*sensor.Pipeline, n)
	for c := 0; c < n; c++ {
		sc := cfg.Sensor
		// Decorrelate per-core transducer noise through the mixing hash:
		// additive sub-seeds (seed + c) put sibling cores on consecutive
		// generator starting points, which correlate across a fleet whose
		// node seeds are themselves consecutive.
		sc.NoiseSeed = stats.SubSeed(sc.NoiseSeed, int64(c))
		p, err := sensor.New(sc)
		if err != nil {
			return nil, err
		}
		pipes[c] = p
	}
	return &Server{
		cfg:     cfg,
		net:     net,
		cpu:     cpu,
		fan:     fanModel,
		pipes:   pipes,
		sinkIdx: sinkIdx,
		fanCmd:  cfg.FanMinSpeed,
		fanAct:  cfg.FanMinSpeed,
		juncBuf: make([]units.Celsius, n),
		measBuf: make([]units.Celsius, n),
	}, nil
}

// CommandFan sets the shared fan command, clamped to the platform range.
func (s *Server) CommandFan(v units.RPM) {
	s.fanCmd = units.ClampRPM(v, s.cfg.FanMinSpeed, s.cfg.FanMaxSpeed)
}

// TickResult reports one multi-core engine step.
type TickResult struct {
	T units.Seconds
	// Junctions and Measured alias per-server scratch buffers: they are
	// valid until the server's next Tick and must be copied by callers
	// that retain samples across ticks. The aliasing keeps the tick loop
	// allocation-free (it runs once per simulated second for hours).
	Junctions []units.Celsius // true per-core temperatures
	Measured  []units.Celsius // DTM-visible per-core temperatures
	MaxJunc   units.Celsius
	MaxMeas   units.Celsius
	FanActual units.RPM
	CPUPower  units.Watt
	FanPower  units.Watt
}

// Tick advances the platform by one base tick under the given per-core
// delivered utilizations (len must equal NCore; each in [0, 1] as a
// fraction of the core's share of the socket's dynamic power). The
// returned Junctions/Measured slices are overwritten by the next Tick.
func (s *Server) Tick(coreUtil []units.Utilization) (TickResult, error) {
	if len(coreUtil) != NCore {
		return TickResult{}, fmt.Errorf("multicore: %d utilizations for %d cores", len(coreUtil), NCore)
	}
	dt := s.cfg.Tick
	if s.started {
		s.clock += dt
	}
	s.started = true

	// Fan slew.
	maxStep := units.RPM(float64(s.cfg.FanSlewPerSec) * float64(dt))
	switch d := s.fanCmd - s.fanAct; {
	case d > maxStep:
		s.fanAct += maxStep
	case d < -maxStep:
		s.fanAct -= maxStep
	default:
		s.fanAct = s.fanCmd
	}
	// Update the fan-speed-dependent sink resistance, then step.
	if err := s.net.ConnectAmbient(s.sinkIdx, s.cfg.HeatSinkLaw.Resistance(s.fanAct)); err != nil {
		return TickResult{}, err
	}

	// Power split: the socket's static power spreads evenly; each core
	// adds its share of the dynamic power.
	staticPer := s.cfg.CPUIdlePower / NCore
	dynSpan := (s.cfg.CPUMaxPower - s.cfg.CPUIdlePower) / NCore
	var totalCPU units.Watt
	for c, u := range coreUtil {
		u = units.ClampUtil(u)
		p := staticPer + units.Watt(float64(dynSpan)*float64(u))
		s.net.SetLoad(c, p)
		totalCPU += p
	}
	if err := s.net.Step(dt); err != nil {
		return TickResult{}, err
	}

	res := TickResult{
		T:         s.clock,
		Junctions: s.juncBuf,
		Measured:  s.measBuf,
		FanActual: s.fanAct,
		CPUPower:  totalCPU,
		FanPower:  s.fan.Power(s.fanAct),
		MaxJunc:   units.Celsius(math.Inf(-1)),
		MaxMeas:   units.Celsius(math.Inf(-1)),
	}
	for c := 0; c < NCore; c++ {
		j := s.net.Temperature(c)
		m := units.Celsius(s.pipes[c].Sample(s.clock, float64(j)))
		res.Junctions[c] = j
		res.Measured[c] = m
		if j > res.MaxJunc {
			res.MaxJunc = j
		}
		if m > res.MaxMeas {
			res.MaxMeas = m
		}
	}
	return res, nil
}
