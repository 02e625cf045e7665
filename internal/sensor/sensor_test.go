package sensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestQuantizerTableI(t *testing.T) {
	q := TableIQuantizer()
	if q.step != 1 {
		t.Fatalf("Table I step = %v, want 1 C", q.step)
	}
	tests := []struct{ in, want float64 }{
		{74.4, 74},
		{74.6, 75},
		{74.5, 75}, // round half away handled by math.Round
		{0, 0},
		{255, 255},
		{-10, 0},    // clamped
		{300, 255},  // clamped
		{80.49, 80}, // below half step
	}
	for _, tt := range tests {
		if got := q.Sample(0, tt.in); got != tt.want {
			t.Errorf("Sample(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(0, 0, 255); err == nil {
		t.Error("0 bits accepted")
	}
	if _, err := NewQuantizer(33, 0, 255); err == nil {
		t.Error("33 bits accepted")
	}
	if _, err := NewQuantizer(8, 10, 10); err == nil {
		t.Error("empty range accepted")
	}
}

func TestQuantizerIdempotentProperty(t *testing.T) {
	q := TableIQuantizer()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		v := math.Mod(raw, 300)
		once := q.Sample(0, v)
		return q.Sample(0, once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizerMonotoneProperty(t *testing.T) {
	q := TableIQuantizer()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		va, vb := math.Mod(a, 300), math.Mod(b, 300)
		if va > vb {
			va, vb = vb, va
		}
		return q.Sample(0, va) <= q.Sample(0, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizerErrorBoundProperty(t *testing.T) {
	q := TableIQuantizer()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		v := units.Clamp(math.Mod(raw, 300), 0, 255)
		got := q.Sample(0, v)
		return math.Abs(got-v) <= q.step/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayLineDeadTime(t *testing.T) {
	d, err := NewDelayLine(10, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Feed a ramp sampled at 1 s; output must be the input 10 s ago.
	for i := 0; i <= 30; i++ {
		tm := units.Seconds(i)
		in := float64(100 + i)
		out := d.Sample(tm, in)
		switch {
		case i < 10:
			if out != 25 {
				t.Errorf("t=%d: out = %v, want initial 25", i, out)
			}
		default:
			want := float64(100 + i - 10)
			if out != want {
				t.Errorf("t=%d: out = %v, want %v", i, out, want)
			}
		}
	}
}

func TestDelayLineZeroDelayIsIdentity(t *testing.T) {
	d, _ := NewDelayLine(0, 0)
	for i := 0; i < 5; i++ {
		if got := d.Sample(units.Seconds(i), float64(i*7)); got != float64(i*7) {
			t.Errorf("zero delay out = %v, want %v", got, i*7)
		}
	}
}

func TestDelayLineValidationAndReset(t *testing.T) {
	if _, err := NewDelayLine(-1, 0); err == nil {
		t.Error("negative delay accepted")
	}
	d, _ := NewDelayLine(5, 1)
	d.Sample(0, 100)
	d.Sample(6, 200) // now outputs 100
	d.Reset()
	if got := d.Sample(7, 300); got != 1 {
		t.Errorf("after reset = %v, want initial 1", got)
	}
}

func TestDelayLineBufferTrimming(t *testing.T) {
	d, _ := NewDelayLine(2, 0)
	for i := 0; i < 10000; i++ {
		d.Sample(units.Seconds(i)*0.1, float64(i))
	}
	if n := len(d.ring); n > 64 {
		t.Errorf("ring grew to %d entries, trim failed", n)
	}
	if d.count > 50 {
		t.Errorf("ring retained %d queued entries, trim failed", d.count)
	}
}

func TestGaussianNoiseStats(t *testing.T) {
	g, err := NewGaussianNoise(0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	n := 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := g.Sample(0, 10)
		sum += v - 10
		sumSq += (v - 10) * (v - 10)
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.5) > 0.02 {
		t.Errorf("noise std = %v, want ~0.5", std)
	}
}

func TestGaussianNoiseZeroSigmaIdentity(t *testing.T) {
	g, _ := NewGaussianNoise(0, 1)
	if got := g.Sample(0, 3.14); got != 3.14 {
		t.Errorf("zero sigma out = %v", got)
	}
}

func TestGaussianNoiseResetRestartsStream(t *testing.T) {
	g, _ := NewGaussianNoise(1, 7)
	a := g.Sample(0, 0)
	g.Reset()
	b := g.Sample(0, 0)
	if a != b {
		t.Error("reset did not restart the deterministic stream")
	}
}

func TestGaussianNoiseValidation(t *testing.T) {
	if _, err := NewGaussianNoise(-0.1, 0); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestPipelineComposition(t *testing.T) {
	q := TableIQuantizer()
	d, _ := NewDelayLine(2, 0)
	p := NewPipeline(q, d)
	// t=0: in 74.6 -> quantized 75 -> delayed (initial) 0
	if got := p.Sample(0, 74.6); got != 0 {
		t.Errorf("t=0 out = %v, want 0", got)
	}
	p.Sample(1, 74.6)
	// t=2: the t=0 sample becomes visible: 75.
	if got := p.Sample(2, 80.2); got != 75 {
		t.Errorf("t=2 out = %v, want 75", got)
	}
	p.Reset()
	if got := p.Sample(3, 74.6); got != 0 {
		t.Errorf("after reset out = %v, want 0 (initial)", got)
	}
}

func TestEmptyPipelineIsIdeal(t *testing.T) {
	p := NewPipeline()
	if got := p.Sample(0, 73.2); got != 73.2 {
		t.Errorf("ideal sensor out = %v", got)
	}
}

func TestConfigNew(t *testing.T) {
	p, err := New(TableIConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Feed constant 74.4 C; after the 10 s lag the output is quantized 74.
	var got float64
	for i := 0; i <= 20; i++ {
		got = p.Sample(units.Seconds(i), 74.4)
	}
	if got != 74 {
		t.Errorf("Table I chain out = %v, want 74", got)
	}
}

func TestConfigNewPropagatesErrors(t *testing.T) {
	bad := TableIConfig()
	bad.ADCBits = 99
	if _, err := New(bad); err == nil {
		t.Error("bad ADC bits accepted")
	}
	bad = TableIConfig()
	bad.LagSeconds = -1
	if _, err := New(bad); err == nil {
		t.Error("negative lag accepted")
	}
	bad = TableIConfig()
	bad.NoiseSigma = -1
	if _, err := New(bad); err == nil {
		t.Error("negative noise accepted")
	}
}

func TestConfigNoiseStage(t *testing.T) {
	c := TableIConfig()
	c.NoiseSigma = 2
	c.LagSeconds = 0
	p, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := 0; i < 20 && !diff; i++ {
		if p.Sample(units.Seconds(i), 74) != 74 {
			diff = true
		}
	}
	if !diff {
		t.Error("noise stage had no effect")
	}
}
