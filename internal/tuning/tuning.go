// Package tuning implements the controller tuning machinery of Sec. IV-A:
// the Ziegler–Nichols closed-loop method (find the ultimate gain K_u whose
// proportional-only loop oscillates indefinitely at steady state, measure
// the ultimate period P_u, then apply the rule table of Eqs. 5–7), a relay
// (Åström–Hägglund) autotuner as a faster alternative, and the sustained-
// oscillation classifier both need.
//
// The tuner drives a Plant: one closed-loop decision step at a time, on
// the simulated clock. The sim package adapts the full server model
// (thermal + non-ideal sensing) to this interface.
package tuning

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/stats"
	"repro/internal/units"
)

// Plant is a single-input single-output process under test: fan speed
// command in, DTM-visible measured temperature out, advanced one fan
// control period per Step.
type Plant interface {
	// Reset returns the plant to its initial operating condition.
	Reset()
	// Step applies the fan speed for one control period and returns the
	// measurement visible at the end of the period.
	Step(s units.RPM) units.Celsius
	// ControlPeriod returns the duration of one Step in seconds.
	ControlPeriod() units.Seconds
}

// Verdict classifies a closed-loop response.
type Verdict int

// Verdict values, ordered by oscillatory energy.
const (
	// Quiet: no significant oscillation detected.
	Quiet Verdict = iota
	// Decaying: oscillation present but shrinking.
	Decaying
	// Sustained: steady limit-cycle oscillation (the Z-N target).
	Sustained
	// Growing: oscillation amplitude increasing — unstable.
	Growing
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Quiet:
		return "quiet"
	case Decaying:
		return "decaying"
	case Sustained:
		return "sustained"
	case Growing:
		return "growing"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Oscillation summarizes the oscillatory content of a sampled signal.
type Oscillation struct {
	Verdict   Verdict
	Amplitude float64 // mean half peak-to-peak excursion
	Period    float64 // in samples; multiply by the control period for seconds
	Trend     float64 // late/early amplitude ratio (1 = sustained)
}

// Classify analyzes a signal for sustained oscillation. prominence sets
// the minimum excursion that counts as a peak (noise floor); sustainedTol
// brackets the amplitude-trend ratio accepted as "sustained"
// (e.g. 0.25 accepts trends in [0.75, 1.33]).
func Classify(xs []float64, prominence, sustainedTol float64) Oscillation {
	peaks := stats.FindPeaks(xs, prominence)
	if len(peaks) < 4 {
		return Oscillation{Verdict: Quiet}
	}
	amp := stats.PeakAmplitude(peaks)
	period := stats.PeakSpacing(peaks)
	trend := stats.AmplitudeTrend(peaks)
	o := Oscillation{Amplitude: amp, Period: period, Trend: trend}
	lo, hi := 1-sustainedTol, 1/(1-sustainedTol)
	switch {
	case trend > hi:
		o.Verdict = Growing
	case trend >= lo:
		o.Verdict = Sustained
	default:
		o.Verdict = Decaying
	}
	return o
}

// ZNConfig parameterizes the closed-loop ultimate-gain search.
type ZNConfig struct {
	RefTemp  units.Celsius // set-point the P-only loop tracks
	RefSpeed units.RPM     // Eq. 4 offset s_ref at the operating point
	Limits   control.Limits
	// KPLo and KPHi bracket the search. KPLo must be stable (decaying)
	// and KPHi unstable (growing); FindUltimate verifies both.
	KPLo, KPHi float64
	// Prominence for peak detection in °C (noise floor). Default 0.1.
	Prominence float64
}

// The ultimate-gain search's fixed schedule.
const (
	// Each trial runs znWarmup steps to settle, then offsets the
	// commanded speed by pulseRPM for znPulseSteps decisions, then
	// observes znSteps steps. Without excitation a noiseless stable loop
	// sits at exactly zero error and every gain would classify as quiet.
	znSteps      = 160
	znWarmup     = 40
	znPulseSteps = 4
	// znSustainedTol brackets the sustained verdict (see Classify).
	znSustainedTol = 0.35
	// znIterations bounds the bisection.
	znIterations = 24
	// znSatFraction is the fraction of post-pulse steps pinned at an
	// actuator limit above which the trial is declared unstable even if
	// the rail-to-rail cycle looks "sustained".
	znSatFraction = 0.25
)

// pulseRPM is the excitation's speed offset at operating speed s: 20% of
// s, at least 100 rpm.
func pulseRPM(s units.RPM) units.RPM {
	p := s / 5
	if p < 100 {
		p = 100
	}
	return p
}

// Ultimate is the result of an ultimate-gain experiment.
type Ultimate struct {
	Ku units.RPM     // per °C: the proportional gain at the stability boundary
	Pu units.Seconds // the ultimate oscillation period
}

// runPOnly drives a proportional-only loop at gain kp: warmup to settle,
// a pulse perturbation to excite the loop, then observation. It returns
// the post-pulse measurement trace and the fraction of observed steps the
// actuator spent pinned at a limit.
func runPOnly(p Plant, cfg ZNConfig, kp float64) (trace []float64, satFrac float64) {
	p.Reset()
	pid, err := control.NewPID(control.PIDConfig{
		Gains:    control.PIDGains{KP: kp},
		RefSpeed: cfg.RefSpeed,
		RefTemp:  cfg.RefTemp,
		Limits:   cfg.Limits,
	})
	if err != nil {
		panic(err) // gains >= 0 and validated limits by FindUltimate
	}
	s := cfg.RefSpeed
	pulse := pulseRPM(cfg.RefSpeed)
	trace = make([]float64, 0, znSteps)
	saturated := 0
	for k := 0; k < znWarmup+znPulseSteps+znSteps; k++ {
		cmd := s
		if k >= znWarmup && k < znWarmup+znPulseSteps {
			cmd = cfg.Limits.Clamp(s - pulse) // heat the plant briefly
		}
		meas := p.Step(cmd)
		if k >= znWarmup+znPulseSteps {
			trace = append(trace, float64(meas))
			if s <= cfg.Limits.Min || s >= cfg.Limits.Max {
				saturated++
			}
		}
		s = pid.Decide(control.FanInputs{Meas: meas, Actual: cmd})
	}
	return trace, float64(saturated) / znSteps
}

// classifyGain runs one P-only trial and classifies it. Trials that spend
// a large fraction of their time pinned at an actuator limit are declared
// Growing regardless of the waveform: a rail-to-rail limit cycle is
// instability for Z-N purposes, not sustained oscillation at the boundary.
func classifyGain(p Plant, cfg ZNConfig, kp float64) Oscillation {
	trace, satFrac := runPOnly(p, cfg, kp)
	o := Classify(trace, cfg.Prominence, znSustainedTol)
	if satFrac > znSatFraction {
		o.Verdict = Growing
	}
	return o
}

// FindUltimate locates the ultimate gain K_u and period P_u by bisection
// between a stable and an unstable proportional gain (Sec. IV-A: "finding
// the value of the proportional-only gain that causes the control loop to
// oscillate indefinitely at steady state").
func FindUltimate(p Plant, cfg ZNConfig) (Ultimate, error) {
	if cfg.Prominence == 0 {
		cfg.Prominence = 0.1
	}
	if err := cfg.Limits.Validate(); err != nil {
		return Ultimate{}, err
	}
	if cfg.KPLo <= 0 || cfg.KPHi <= cfg.KPLo {
		return Ultimate{}, fmt.Errorf("tuning: bad bracket [%v, %v]", cfg.KPLo, cfg.KPHi)
	}
	lo, hi := cfg.KPLo, cfg.KPHi
	if v := classifyGain(p, cfg, lo).Verdict; v == Growing {
		return Ultimate{}, fmt.Errorf("tuning: lower bracket %v already unstable", lo)
	}
	if v := classifyGain(p, cfg, hi).Verdict; v != Growing && v != Sustained {
		return Ultimate{}, fmt.Errorf("tuning: upper bracket %v not unstable (%v)", hi, v)
	}
	best := Oscillation{}
	bestKp := 0.0
	for i := 0; i < znIterations; i++ {
		mid := (lo + hi) / 2
		switch o := classifyGain(p, cfg, mid); o.Verdict {
		case Growing:
			hi = mid
		case Sustained:
			// Keep the largest sustained gain seen; continue tightening
			// toward the true boundary from below.
			if mid > bestKp {
				best, bestKp = o, mid
			}
			lo = mid
		default:
			lo = mid
		}
	}
	if bestKp == 0 {
		// The boundary was crossed without landing on a "sustained"
		// verdict (classification bands can be narrow); use the midpoint
		// and measure the period at the last stable-ish gain.
		bestKp = (lo + hi) / 2
		best = classifyGain(p, cfg, bestKp)
		if best.Period == 0 {
			best = classifyGain(p, cfg, hi)
		}
		if best.Period == 0 {
			return Ultimate{}, fmt.Errorf("tuning: could not measure ultimate period near kp=%v", bestKp)
		}
	}
	return Ultimate{
		Ku: units.RPM(bestKp),
		Pu: units.Seconds(best.Period) * p.ControlPeriod(),
	}, nil
}
