package multicore

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// RunConfig describes a three-controller experiment: the fan controller,
// the CPU capper and the thermal-aware scheduler all manage the same
// N-core platform, either free-running (the paper's instability warning)
// or serialized through the performance-biased coordination of Sec. V.
type RunConfig struct {
	Config     Config
	Duration   units.Seconds
	Workload   workload.Generator // socket-level demand in [0, 1]
	Skewed     bool               // start from a consolidated assignment
	Coordinate bool               // serialize actions (one per epoch)
	Record     bool
}

// refTemp is the fan set-point T_ref^fan, which the capper's band follows.
const refTemp units.Celsius = 75

// RunResult is the outcome of one three-controller run.
type RunResult struct {
	ViolationFrac float64
	Migrations    int
	FanEnergy     units.Joule
	MaxJunction   units.Celsius
	FanAmplitude  float64 // oscillation amplitude of the fan command, rpm
	CoreSpread    float64 // mean hot-cold true-temperature gap, °C
	Traces        trace.Set
}

// Run executes the three-controller scenario.
func Run(rc RunConfig) (*RunResult, error) {
	if rc.Workload == nil {
		return nil, fmt.Errorf("multicore: nil workload")
	}
	if rc.Duration <= 0 {
		return nil, fmt.Errorf("multicore: non-positive duration %v", rc.Duration)
	}
	server, err := NewServer(rc.Config)
	if err != nil {
		return nil, err
	}
	base := rc.Config.Base

	adaptive, err := control.NewAdaptivePID(core.DefaultRegions(), refTemp,
		control.Limits{Min: base.FanMinSpeed, Max: base.FanMaxSpeed})
	if err != nil {
		return nil, err
	}
	adaptive.SetSlewFrac(0.6, 400)
	fan, err := control.NewQuantGuard(adaptive, 1)
	if err != nil {
		return nil, err
	}
	capper, err := control.NewCapper(refTemp+1.5, refTemp+4, 0.05, 0.5)
	if err != nil {
		return nil, err
	}
	sched, err := NewScheduler(3, 0.25, 5)
	if err != nil {
		return nil, err
	}

	n := rc.Config.NCore
	var assignShare []units.Utilization // per-core share of demand, sums to ~1*n scale
	if rc.Skewed {
		assignShare = SplitSkewed(0.5, n)
	} else {
		assignShare = SplitEven(0.5, n)
	}

	cap := units.Utilization(1)
	fanCmd := base.FanMinSpeed
	lastFan := units.Seconds(0)
	fanEver := false
	standing := units.RPM(0) // last fan delta, for coordination priority
	lastAction := units.Seconds(-1000)
	const epoch = units.Seconds(5)

	var spreadSum float64
	violations, ticks := 0, 0
	var fanE units.Joule
	maxJ := units.Celsius(0)
	meas := make([]units.Celsius, n)
	for i := range meas {
		meas[i] = units.Celsius(base.Sensor.InitialValue)
	}

	// All per-tick state is allocated once here, recorded series included:
	// the loop itself is allocation-free.
	nTicks := int(float64(rc.Duration) / float64(base.Tick))
	var ts trace.Set
	if rc.Record {
		ts = trace.Set{
			trace.NewSeries("fan_cmd", nTicks),
			trace.NewSeries("max_junction", nTicks),
			trace.NewSeries("core_spread", nTicks),
		}
	}
	fanVals := make([]float64, 0, nTicks)
	coreUtil := make([]units.Utilization, n)
	proposal := make([]units.Utilization, 0, n) // scheduler scratch
	for k := 0; k < nTicks; k++ {
		t := units.Seconds(float64(k) * float64(base.Tick))
		demand := rc.Workload.At(t)

		// --- local controller proposals against the hottest reading ---
		maxMeas := meas[0]
		for _, m := range meas[1:] {
			if m > maxMeas {
				maxMeas = m
			}
		}
		capProposal := capper.Decide(control.CapInputs{T: t, Meas: maxMeas, Actual: cap})
		fanProposal := fanCmd
		fanDue := !fanEver || t-lastFan >= 30-1e-9
		if fanDue {
			fanProposal = fan.Decide(control.FanInputs{T: t, Meas: maxMeas, Actual: fanCmd})
			lastFan = t
			fanEver = true
		}
		proposal = sched.DecideInto(proposal, t, meas, assignShare)

		// --- apply: free-for-all vs serialized ---
		if !rc.Coordinate {
			if fanDue {
				fanCmd = fanProposal
			}
			cap = capProposal
			copy(assignShare, proposal)
		} else {
			// One action per epoch, performance-biased: a pending fan
			// move wins (and defines the standing intent); migrations
			// are performance-free and run next; cap cuts last, cap
			// releases free.
			switch {
			case fanDue && abs(float64(fanProposal-fanCmd)) > 25:
				standing = fanProposal - fanCmd
				fanCmd = fanProposal
				lastAction = t
			case capProposal > cap:
				cap = capProposal // restore performance freely
			case t-lastAction >= epoch-1e-9 && changed(proposal, assignShare):
				copy(assignShare, proposal)
				lastAction = t
			case t-lastAction >= epoch-1e-9 && capProposal < cap && standing <= 0:
				cap = capProposal
				lastAction = t
			}
		}

		// --- deliver and advance the plant ---
		delivered := demand
		if delivered > cap {
			delivered = cap
		}
		if delivered < demand-1e-9 {
			violations++
		}
		for c := range coreUtil {
			// assignShare is a distribution weight; scale so that the
			// balanced case matches the single-socket model: delivered
			// demand spread by weight, clamped per core.
			coreUtil[c] = units.ClampUtil(units.Utilization(float64(delivered) * float64(assignShare[c]) * 2))
		}
		server.CommandFan(fanCmd)
		res, err := server.Tick(coreUtil)
		if err != nil {
			return nil, err
		}
		copy(meas, res.Measured)
		fanE += units.Joule(float64(res.FanPower) * float64(base.Tick))
		if res.MaxJunc > maxJ {
			maxJ = res.MaxJunc
		}
		lo, hi := res.Junctions[0], res.Junctions[0]
		for _, j := range res.Junctions[1:] {
			if j < lo {
				lo = j
			}
			if j > hi {
				hi = j
			}
		}
		spreadSum += float64(hi - lo)
		fanVals = append(fanVals, float64(fanCmd))
		ticks++
		if ts != nil {
			tf := float64(t)
			ts[0].MustAppend(tf, float64(fanCmd))
			ts[1].MustAppend(tf, float64(res.MaxJunc))
			ts[2].MustAppend(tf, float64(hi-lo))
		}
	}

	out := &RunResult{
		Migrations:  sched.Migrations,
		FanEnergy:   fanE,
		MaxJunction: maxJ,
		Traces:      ts,
	}
	if ticks > 0 {
		out.ViolationFrac = float64(violations) / float64(ticks)
		out.CoreSpread = spreadSum / float64(ticks)
	}
	if len(fanVals) > 60 {
		out.FanAmplitude = stats.PeakAmplitude(stats.FindPeaks(fanVals[60:], 200))
	}
	return out, nil
}

func changed(a, b []units.Utilization) bool {
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
