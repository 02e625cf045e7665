package sensor

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/units"
)

// identity returns a fresh empty pipeline (an ideal replica chain).
func identity() Stage { return NewPipeline() }

func newTestRedundant(t *testing.T, cfg RedundantConfig, chains ...Stage) *Redundant {
	t.Helper()
	r, err := NewRedundant(cfg, chains...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRedundantValidation(t *testing.T) {
	if _, err := NewRedundant(RedundantConfig{}, identity(), identity()); err == nil {
		t.Error("2-chain array accepted; voting needs >= 3")
	}
	if _, err := NewRedundant(RedundantConfig{}, identity(), nil, identity()); err == nil {
		t.Error("nil chain accepted")
	}
	bad := []RedundantConfig{
		{RangeMin: 10, RangeMax: 10},
		{RangeMin: 50, RangeMax: 0},
	}
	for i, cfg := range bad {
		if _, err := NewRedundant(cfg, identity(), identity(), identity()); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

// A clean array of identical replicas is transparent: fused == input,
// health OK throughout.
func TestRedundantCleanIsTransparent(t *testing.T) {
	r := newTestRedundant(t, RedundantConfig{}, identity(), identity(), identity())
	for i := 0; i < 100; i++ {
		tm := units.Seconds(i)
		v := 40 + 10*float64(i%7)/7
		if got := r.Sample(tm, v); got != v {
			t.Fatalf("t=%v: fused %v, want %v", tm, got, v)
		}
		if r.Health() != HealthOK {
			t.Fatalf("t=%v: health %v, want ok", tm, r.Health())
		}
	}
	if r.rejectedTicks != 0 || r.quorumFails != 0 {
		t.Errorf("clean run rejected %d samples, %d quorum failures", r.rejectedTicks, r.quorumFails)
	}
}

// A single replica wedged by StuckAt is outvoted as soon as its frozen
// value drifts past the outlier bound; the fused reading tracks the two
// healthy replicas and health stays OK.
func TestRedundantOutvotesStuckReplica(t *testing.T) {
	stuck, err := NewStuckAt(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRedundant(t, RedundantConfig{},
		NewPipeline(stuck), identity(), identity())
	for i := 0; i <= 60; i++ {
		tm := units.Seconds(i)
		v := 40 + 0.5*float64(i) // healthy replicas ramp, stuck holds 40
		got := r.Sample(tm, v)
		if got != v {
			t.Fatalf("t=%v: fused %v, want healthy value %v", tm, got, v)
		}
		if r.Health() != HealthOK {
			t.Fatalf("t=%v: health %v, want ok", tm, r.Health())
		}
	}
	if r.rejectedTicks == 0 {
		t.Error("stuck replica was never voted out")
	}
}

// Readings outside the ADC range are implausible and never reach the
// vote: a replica with a wild calibration offset does not move the fused
// value even though it is 1 of 3.
func TestRedundantRangePlausibility(t *testing.T) {
	r := newTestRedundant(t, RedundantConfig{RangeMin: 0, RangeMax: 100},
		NewPipeline(&CalibrationBias{Offset: 500}), identity(), identity())
	if got := r.Sample(0, 50); got != 50 {
		t.Fatalf("fused %v, want 50", got)
	}
	if r.rejectedTicks != 1 {
		t.Errorf("rejected %d, want 1 (the out-of-range replica)", r.rejectedTicks)
	}
}

// A replica that jumps faster than the physical slew bound is rejected
// for that tick and recovers on the next (prev tracks the raw reading
// even through a rejection).
func TestRedundantSlewPlausibility(t *testing.T) {
	jumpy := &CalibrationBias{}
	r := newTestRedundant(t, RedundantConfig{},
		NewPipeline(jumpy), identity(), identity())
	r.maxSlew, r.quorum = 5, 3
	r.Sample(0, 40)
	r.Sample(1, 40)
	if r.Health() != HealthOK {
		t.Fatalf("health %v before the jump, want ok", r.Health())
	}
	jumpy.Offset = 50 // 50 °C in one 1 s tick >> 5 °C/s
	r.Sample(2, 40)
	if r.Health() == HealthOK {
		t.Error("50 °C/s jump kept quorum at Quorum=3; slew check missed it")
	}
	rej := r.rejectedTicks
	if rej == 0 {
		t.Error("jump was not rejected")
	}
	// Next tick the offset is steady: the replica's reading moves 0 °C/s
	// and is plausible again (outlier rejection is a separate concern,
	// disabled here by a huge bound via Quorum-friendly offset removal).
	jumpy.Offset = 0
	r.Sample(3, 40)
	r.Sample(4, 40)
	if r.Health() != HealthOK {
		t.Errorf("health %v two ticks after recovery, want ok", r.Health())
	}
}

// Three replicas that disagree beyond the outlier bound can't form a
// quorum: the voter holds the last good value for its hold budget (three
// ticks here), then latches FailSafe.
func TestRedundantHoldThenFailSafe(t *testing.T) {
	lo := &CalibrationBias{}
	hi := &CalibrationBias{}
	r := newTestRedundant(t, RedundantConfig{},
		NewPipeline(lo), identity(), NewPipeline(hi))
	r.outlierC, r.holdTicks = 2, 3
	if got := r.Sample(0, 50); got != 50 {
		t.Fatalf("clean fused %v, want 50", got)
	}
	// Spread the replicas to 40/50/60: median 50, neighbors 10 °C out —
	// only 1 survivor < quorum 2.
	lo.Offset, hi.Offset = -10, 10
	for i := 1; i <= 3; i++ {
		got := r.Sample(units.Seconds(i), 50)
		if got != 50 {
			t.Fatalf("tick %d: hold value %v, want last good 50", i, got)
		}
		if r.Health() != HealthHold {
			t.Fatalf("tick %d: health %v, want hold", i, r.Health())
		}
	}
	r.Sample(4, 50)
	if r.Health() != HealthFailSafe {
		t.Fatalf("health %v after hold budget, want failsafe", r.Health())
	}
	if r.failSafeTicks == 0 {
		t.Error("no FailSafe tick counted after latching")
	}
	// Agreement restored: the voter recovers to OK.
	lo.Offset, hi.Offset = 0, 0
	if got := r.Sample(5, 55); got != 55 || r.Health() != HealthOK {
		t.Errorf("after recovery: fused %v health %v, want 55 ok", got, r.Health())
	}
}

// With no good value ever produced, the fallback is the median of the
// raw readings.
func TestRedundantFallbackIsRawMedian(t *testing.T) {
	r := newTestRedundant(t, RedundantConfig{},
		NewPipeline(&CalibrationBias{Offset: -20}),
		identity(),
		NewPipeline(&CalibrationBias{Offset: 20}))
	r.outlierC = 1
	if got := r.Sample(0, 50); got != 50 {
		t.Errorf("fallback fused %v, want raw median 50", got)
	}
	if r.Health() == HealthOK {
		t.Error("health ok with no quorum")
	}
}

// Even replica counts average the two middle survivors.
func TestRedundantEvenMedian(t *testing.T) {
	r := newTestRedundant(t, RedundantConfig{},
		identity(), identity(),
		NewPipeline(&CalibrationBias{Offset: 2}),
		NewPipeline(&CalibrationBias{Offset: 4}))
	r.outlierC = 10
	if got := r.Sample(0, 50); got != 51 {
		t.Errorf("fused %v, want mean of middles 51", got)
	}
}

// Reset must replay the identical fused sequence — the warm-lockstep
// contract for every stage, including the voter's internal state and
// each replica's fault chain.
func TestRedundantResetReplaysBitIdentical(t *testing.T) {
	build := func() *Redundant {
		base1, err := New(TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		drop, err := NewDropout(0.4, 7)
		if err != nil {
			t.Fatal(err)
		}
		slew, err := NewSlewLimit(0.5)
		if err != nil {
			t.Fatal(err)
		}
		base2, err := New(TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		stuck, err := NewStuckAt(20, 35)
		if err != nil {
			t.Fatal(err)
		}
		base3, err := New(TableIConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := newTestRedundant(t, RedundantConfig{},
			NewPipeline(drop, base1),
			NewPipeline(slew, base2),
			NewPipeline(base3, stuck))
		r.holdTicks = 2
		return r
	}
	input := func(i int) float64 { return 40 + 15*float64(i%13)/13 }
	r := build()
	first := make([]float64, 80)
	for i := range first {
		first[i] = r.Sample(units.Seconds(i), input(i))
	}
	r.Reset()
	if r.Health() != HealthOK || r.rejectedTicks != 0 || r.failSafeTicks != 0 {
		t.Fatal("Reset did not clear voter state")
	}
	for i := range first {
		if got := r.Sample(units.Seconds(i), input(i)); got != first[i] {
			t.Fatalf("tick %d: replay %v, want %v", i, got, first[i])
		}
	}
	// And a fresh instance matches too (Reset == construction state).
	fresh := build()
	for i := range first {
		if got := fresh.Sample(units.Seconds(i), input(i)); got != first[i] {
			t.Fatalf("tick %d: fresh instance %v, want %v", i, got, first[i])
		}
	}
}

// The power feed reaches placement stages inside replica chains, and an
// array of power-free chains reports NeedsPower false.
func TestRedundantPowerForwarding(t *testing.T) {
	place, err := NewPlacementOffset(0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRedundant(t, RedundantConfig{},
		NewPipeline(place), identity(), identity())
	if !r.NeedsPower() {
		t.Fatal("NeedsPower false with a placement replica")
	}
	r.ObservePower(50) // placement reads 0.1*50 = 5 °C low
	r.Sample(0, 50)
	r.Sample(1, 50)
	// Replica 0 now reads 45, others 50: median 50, 45 within default
	// outlier? 5 > 3 -> rejected; fused 50.
	if got := r.Sample(2, 50); got != 50 {
		t.Errorf("fused %v, want 50 (placement replica outvoted)", got)
	}
	inert := newTestRedundant(t, RedundantConfig{}, identity(), identity(), identity())
	if inert.NeedsPower() {
		t.Error("NeedsPower true on an array of ideal chains")
	}
	outer := NewPipeline(inert)
	if outer.NeedsPower() {
		t.Error("pipeline wrapping an inert array reports NeedsPower")
	}
	outer2 := NewPipeline(r)
	if !outer2.NeedsPower() {
		t.Error("pipeline wrapping a powered array loses NeedsPower")
	}
}

// Sample must stay allocation-free in steady state (checked here in
// addition to the repo-level contract table so the sensor package is
// self-contained).
func TestRedundantSampleNoAllocSmoke(t *testing.T) {
	r := newTestRedundant(t, RedundantConfig{},
		identity(), identity(), NewPipeline(&CalibrationBias{Offset: 1}))
	for i := 0; i < 10; i++ {
		r.Sample(units.Seconds(i), 50)
	}
	i := 10
	if allocs := testing.AllocsPerRun(200, func() {
		r.Sample(units.Seconds(i), 50+float64(i%5))
		i++
	}); allocs != 0 {
		t.Errorf("Sample allocates %.2f objects/op, want 0", allocs)
	}
}

// scriptStage is a stub replica that returns the next reading from its
// script, whatever the true value.
type scriptStage struct {
	script []float64
	next   int
}

func (s *scriptStage) Sample(units.Seconds, float64) float64 {
	v := s.script[s.next]
	s.next++
	return v
}

func (s *scriptStage) Reset() { s.next = 0 }

// FuzzRedundant feeds three to five stub replicas arbitrary readings, NaN
// and infinities included, over several ticks. The fused value must always
// be finite, and health must follow the quorum: OK on a tick with a
// quorum, Hold for the first holdTicks consecutive failures, FailSafe
// from failure holdTicks+1 on. The hold budget is shortened to 1-8
// ticks so that short inputs reach FailSafe.
func FuzzRedundant(f *testing.F) {
	reading := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// Replicas reading 40, NaN and 60 on the first tick: no quorum and no
	// good value yet, so the raw-median fallback answers.
	f.Add(uint8(0), uint8(2), reading(40, math.NaN(), 60))
	// Four implausible readings near the float64 limit: the fallback's
	// even median must not overflow.
	f.Add(uint8(1), uint8(0), reading(1e308, 1e308, 1e308, 1e308, 50, 50, 50, 50, 50, math.Inf(1), 51, 49))
	f.Add(uint8(2), uint8(1), reading(-1e308, 1e308, 1e308, -1e308, math.Inf(-1), 50, 50, 50, 50, 50))
	f.Fuzz(func(t *testing.T, replicas, hold uint8, data []byte) {
		n := 3 + int(replicas%3)
		holdTicks := 1 + int(hold%8)
		ticks := min(len(data)/(8*n), 64)
		if ticks == 0 {
			return
		}
		chains := make([]Stage, n)
		scripts := make([]*scriptStage, n)
		for j := range chains {
			scripts[j] = &scriptStage{script: make([]float64, ticks)}
			chains[j] = scripts[j]
		}
		for k := 0; k < ticks; k++ {
			for j := range scripts {
				off := 8 * (k*n + j)
				scripts[j].script[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			}
		}
		r, err := NewRedundant(RedundantConfig{}, chains...)
		if err != nil {
			t.Fatal(err)
		}
		r.holdTicks = holdTicks
		failures := 0
		for k := 0; k < ticks; k++ {
			before := r.quorumFails
			got := r.Sample(units.Seconds(k), 50)
			if !units.IsFinite(got) {
				t.Fatalf("tick %d: fused %v from readings %v", k, got, readingsAt(scripts, k))
			}
			if r.quorumFails > before {
				failures++
			} else {
				failures = 0
			}
			want := HealthOK
			switch {
			case failures > holdTicks:
				want = HealthFailSafe
			case failures > 0:
				want = HealthHold
			}
			if r.Health() != want {
				t.Fatalf("tick %d: health %v after %d consecutive quorum failures (hold %d), want %v",
					k, r.Health(), failures, holdTicks, want)
			}
		}
	})
}

// readingsAt returns every replica's reading on tick k.
func readingsAt(scripts []*scriptStage, k int) []float64 {
	out := make([]float64, len(scripts))
	for j, s := range scripts {
		out[j] = s.script[k]
	}
	return out
}
