// Package sensor models the non-ideal temperature measurement chain of
// Sec. I and III-A: the physical transducer value passes through additive
// noise, an 8-bit ADC quantizer, and an I2C transport that delays every
// sample by ~10 s before the DTM firmware sees it. The package also models
// bus bandwidth contention, reproducing the paper's observation that the
// lag worsens as server generations add sensors.
//
// Stages compose through the Stage interface; Pipeline chains them. All
// stages are driven on the simulator's clock (Sample(t, v)), never the wall
// clock.
package sensor

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/units"
)

// Stage transforms one sample of a measured signal at simulation time t.
type Stage interface {
	// Sample pushes the physical value v at time t through the stage and
	// returns the stage output as visible at time t.
	Sample(t units.Seconds, v float64) float64
	// Reset clears stage state.
	Reset()
}

// Quantizer is a mid-tread uniform ADC quantizer: an n-bit converter over
// [Min, Max] rounds to the nearest of 2^n levels. With the paper's 8-bit
// converter over 0..255 °C the step is exactly 1 °C.
type Quantizer struct {
	Min, Max float64
	step     float64
	levels   int
}

// NewQuantizer builds an n-bit quantizer over [min, max].
func NewQuantizer(bits int, min, max float64) (*Quantizer, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("sensor: bits %d outside [1, 32]", bits)
	}
	if max <= min {
		return nil, fmt.Errorf("sensor: bad quantizer range [%v, %v]", min, max)
	}
	levels := 1 << uint(bits)
	return &Quantizer{
		Min:    min,
		Max:    max,
		step:   (max - min) / float64(levels-1),
		levels: levels,
	}, nil
}

// TableIQuantizer returns the paper's measurement quantizer: an 8-bit ADC
// spanning 0..255 °C, i.e. a 1 °C step.
//
//lint:ignore testonly Table I fixture for TestQuantizerTableI and the sensor-chain tests
func TableIQuantizer() *Quantizer {
	q, err := NewQuantizer(8, 0, 255)
	if err != nil {
		panic(err) // constants are valid by construction
	}
	return q
}

// Sample implements Stage: round to the nearest level, clamped to range.
func (q *Quantizer) Sample(_ units.Seconds, v float64) float64 {
	v = units.Clamp(v, q.Min, q.Max)
	k := math.Round((v - q.Min) / q.step)
	return q.Min + k*q.step
}

// Reset implements Stage (the quantizer is stateless).
func (q *Quantizer) Reset() {}

// DelayLine is a pure transport delay: the value visible at time t is the
// newest sample taken at or before t - Delay. It models the I2C/BMC
// telemetry path of Fig. 1. Before any sample is old enough, the output
// holds the configured initial value.
//
// Samples are kept in a ring buffer whose capacity stabilizes at about
// delay/tick entries, so steady-state sampling performs zero heap
// allocations — the engine calls Sample once per simulated tick.
type DelayLine struct {
	Delay   units.Seconds
	Initial float64
	ring    []timedSample
	head    int // index of the oldest queued sample
	count   int // queued samples
	cur     float64
	curSet  bool
}

type timedSample struct {
	t units.Seconds
	v float64
}

// NewDelayLine builds a delay line with the given dead time and the value
// reported before any delayed sample is available.
func NewDelayLine(delay units.Seconds, initial float64) (*DelayLine, error) {
	if delay < 0 {
		return nil, fmt.Errorf("sensor: negative delay %v", delay)
	}
	return &DelayLine{Delay: delay, Initial: initial}, nil
}

// push appends a sample to the ring, growing it only when full.
func (d *DelayLine) push(s timedSample) {
	if d.count == len(d.ring) {
		grown := make([]timedSample, 2*len(d.ring)+4)
		for i := 0; i < d.count; i++ {
			grown[i] = d.ring[(d.head+i)%len(d.ring)]
		}
		d.ring = grown
		d.head = 0
	}
	// head and count are both below len(ring) here, so one subtraction
	// wraps the tail index.
	tail := d.head + d.count
	if tail >= len(d.ring) {
		tail -= len(d.ring)
	}
	d.ring[tail] = s
	d.count++
}

// Sample implements Stage.
func (d *DelayLine) Sample(t units.Seconds, v float64) float64 {
	d.push(timedSample{t: t, v: v})
	cutoff := t - d.Delay
	// Pop every queued sample already visible at t; the newest of them is
	// the current output and stays so until a younger one matures.
	for d.count > 0 && d.ring[d.head].t <= cutoff {
		d.cur = d.ring[d.head].v
		d.curSet = true
		if d.head++; d.head == len(d.ring) {
			d.head = 0
		}
		d.count--
	}
	if !d.curSet {
		return d.Initial
	}
	return d.cur
}

// Reset implements Stage.
func (d *DelayLine) Reset() {
	d.head, d.count = 0, 0
	d.cur, d.curSet = 0, false
}

// GaussianNoise adds zero-mean Gaussian noise with the given standard
// deviation, from a deterministic source.
type GaussianNoise struct {
	Sigma float64
	rng   *stats.Rand
	seed  int64
}

// NewGaussianNoise builds a noise stage with deterministic seed.
func NewGaussianNoise(sigma float64, seed int64) (*GaussianNoise, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("sensor: negative noise sigma %v", sigma)
	}
	return &GaussianNoise{Sigma: sigma, rng: stats.NewRand(seed), seed: seed}, nil
}

// Sample implements Stage.
func (g *GaussianNoise) Sample(_ units.Seconds, v float64) float64 {
	if g.Sigma == 0 {
		return v
	}
	return g.rng.Normal(v, g.Sigma)
}

// Reset implements Stage: the noise stream restarts from its seed.
func (g *GaussianNoise) Reset() { g.rng = stats.NewRand(g.seed) }

// Pipeline chains stages in order: physical value in, DTM-visible value
// out. The paper's chain is noise -> quantizer -> delay.
type Pipeline struct {
	stages []Stage
	// powered caches the stages (transitively, through nested pipelines)
	// that consume the instantaneous power feed, so a chain without any —
	// every ideal and transport-fault-only chain — skips the per-tick
	// forwarding entirely.
	powered []PowerAware
}

// NewPipeline builds a pipeline over the given stages. An empty pipeline
// is the identity (an ideal sensor).
func NewPipeline(stages ...Stage) *Pipeline {
	p := &Pipeline{stages: stages}
	for _, s := range stages {
		// A nested pipeline satisfies PowerAware unconditionally; collect
		// it only when it actually holds power-aware stages, so that
		// wrapping an ideal chain keeps NeedsPower false.
		switch inner := s.(type) {
		case *Pipeline:
			if inner.NeedsPower() {
				p.powered = append(p.powered, inner)
			}
		case *Redundant:
			// Same rule as nested pipelines: a redundant array forwards
			// power only when some replica chain actually consumes it.
			if inner.NeedsPower() {
				p.powered = append(p.powered, inner)
			}
		case PowerAware:
			p.powered = append(p.powered, inner)
		}
	}
	return p
}

// NeedsPower reports whether any stage consumes the instantaneous power
// feed; the platform checks it once per tick before forwarding.
func (p *Pipeline) NeedsPower() bool { return len(p.powered) > 0 }

// ObservePower implements PowerAware: the power feed fans out to every
// power-aware stage in chain order.
func (p *Pipeline) ObservePower(w float64) {
	for _, s := range p.powered {
		s.ObservePower(w)
	}
}

// Sample implements Stage.
func (p *Pipeline) Sample(t units.Seconds, v float64) float64 {
	for _, s := range p.stages {
		v = s.Sample(t, v)
	}
	return v
}

// Reset implements Stage.
func (p *Pipeline) Reset() {
	for _, s := range p.stages {
		s.Reset()
	}
}

// Config bundles the parameters of the paper's measurement system. It is
// hashed into scenario store keys through sim.Config, so every field
// carries an explicit json tag mirroring its name (enforced by repolint's
// hashedfield analyzer; the names pin the PR 4 canonical JSON).
type Config struct {
	LagSeconds   units.Seconds `json:"LagSeconds"`   // I2C transport delay (paper: 10 s)
	ADCBits      int           `json:"ADCBits"`      // converter resolution (paper: 8)
	RangeMin     float64       `json:"RangeMin"`     // ADC range lower bound in °C (paper: 0)
	RangeMax     float64       `json:"RangeMax"`     // ADC range upper bound in °C (paper: 255)
	NoiseSigma   float64       `json:"NoiseSigma"`   // transducer noise σ in °C (0 = clean)
	NoiseSeed    int64         `json:"NoiseSeed"`    // deterministic noise seed
	InitialValue float64       `json:"InitialValue"` // value reported before the first delayed sample
}

// TableIConfig returns the paper's measurement system: 10 s lag, 8-bit ADC
// over 0–255 °C (1 °C quantization), no transducer noise, reporting
// ambient-ish 25 °C until telemetry arrives.
func TableIConfig() Config {
	return Config{
		LagSeconds:   10,
		ADCBits:      8,
		RangeMin:     0,
		RangeMax:     255,
		InitialValue: 25,
	}
}

// New builds the standard measurement pipeline from c:
// noise -> ADC quantizer -> I2C delay.
func New(c Config) (*Pipeline, error) {
	if c.LagSeconds < 0 {
		return nil, fmt.Errorf("sensor: negative lag %v", c.LagSeconds)
	}
	if c.NoiseSigma < 0 {
		return nil, fmt.Errorf("sensor: negative noise sigma %v", c.NoiseSigma)
	}
	var stages []Stage
	if c.NoiseSigma > 0 {
		n, err := NewGaussianNoise(c.NoiseSigma, c.NoiseSeed)
		if err != nil {
			return nil, err
		}
		stages = append(stages, n)
	}
	if c.ADCBits > 0 {
		q, err := NewQuantizer(c.ADCBits, c.RangeMin, c.RangeMax)
		if err != nil {
			return nil, err
		}
		stages = append(stages, q)
	}
	if c.LagSeconds > 0 {
		d, err := NewDelayLine(c.LagSeconds, c.InitialValue)
		if err != nil {
			return nil, err
		}
		stages = append(stages, d)
	}
	return NewPipeline(stages...), nil
}
