package tuning

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// RelayConfig parameterizes the relay (Åström–Hägglund) autotuning
// experiment: instead of searching for the ultimate gain, a relay of
// amplitude d around the operating fan speed forces a limit cycle whose
// amplitude a and period give K_u = 4d / (π a) and P_u directly. One
// experiment replaces the whole bisection, at the cost of a describing-
// function approximation.
type RelayConfig struct {
	RefTemp   units.Celsius // set-point the relay switches around
	RefSpeed  units.RPM     // operating fan speed the relay straddles
	Amplitude units.RPM     // relay half-amplitude d
	// Prominence for peak detection in °C. Default 0.1.
	Prominence float64
}

// The relay experiment runs relayWarmup discarded steps, then measures
// relaySteps closed-loop steps.
const (
	relaySteps  = 200
	relayWarmup = 60
)

// RelayTune runs the relay experiment against the plant and returns the
// estimated ultimate point.
func RelayTune(p Plant, cfg RelayConfig) (Ultimate, error) {
	if cfg.Prominence == 0 {
		cfg.Prominence = 0.1
	}
	if cfg.Amplitude <= 0 {
		return Ultimate{}, fmt.Errorf("tuning: non-positive relay amplitude %v", cfg.Amplitude)
	}
	p.Reset()
	s := cfg.RefSpeed
	meas := make([]float64, 0, relaySteps)
	for k := 0; k < relayWarmup+relaySteps; k++ {
		m := p.Step(s)
		if k >= relayWarmup {
			meas = append(meas, float64(m))
		}
		// Hotter than the set-point: push the fan up; cooler: down.
		if m > cfg.RefTemp {
			s = cfg.RefSpeed + cfg.Amplitude
		} else {
			s = cfg.RefSpeed - cfg.Amplitude
		}
	}
	o := Classify(meas, cfg.Prominence, 0.5)
	if o.Verdict == Quiet || o.Amplitude == 0 || o.Period == 0 {
		return Ultimate{}, fmt.Errorf("tuning: relay produced no measurable limit cycle")
	}
	ku := 4 * float64(cfg.Amplitude) / (math.Pi * o.Amplitude)
	return Ultimate{
		Ku: units.RPM(ku),
		Pu: units.Seconds(o.Period) * p.ControlPeriod(),
	}, nil
}
