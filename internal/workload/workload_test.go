package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/units"
)

func TestConstant(t *testing.T) {
	c := Constant{U: 0.5}
	if c.At(0) != 0.5 || c.At(1e6) != 0.5 {
		t.Error("constant not constant")
	}
	if (Constant{U: 1.5}).At(0) != 1 {
		t.Error("constant not clamped")
	}
}

func TestSquareWave(t *testing.T) {
	s, err := NewSquare(0.1, 0.7, 300)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		t    units.Seconds
		want units.Utilization
	}{
		{0, 0.1}, {149, 0.1}, {150, 0.7}, {299, 0.7}, {300, 0.1}, {450, 0.7},
		{-5, 0.1},
	}
	for _, tt := range tests {
		if got := s.At(tt.t); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestSquareValidation(t *testing.T) {
	if _, err := NewSquare(0.1, 0.7, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewSquare(-0.1, 0.7, 10); err == nil {
		t.Error("negative low accepted")
	}
	if _, err := NewSquare(0.1, 1.7, 10); err == nil {
		t.Error("high > 1 accepted")
	}
}

func TestPaperSquare(t *testing.T) {
	s := PaperSquare(300)
	if s.Low != 0.1 || s.High != 0.7 {
		t.Errorf("paper square = %+v", s)
	}
}

func TestStep(t *testing.T) {
	s := Step{Before: 0.1, After: 0.7, Time: 100}
	if s.At(99.9) != 0.1 || s.At(100) != 0.7 {
		t.Error("step transition wrong")
	}
}

func TestNoisyDeterministicAndClamped(t *testing.T) {
	base := PaperSquare(300)
	n, err := NewNoisy(base, 0.04, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tm := units.Seconds(i)
		a, b := n.At(tm), n.At(tm)
		if a != b {
			t.Fatalf("non-deterministic at t=%v: %v vs %v", tm, a, b)
		}
		if a < 0 || a > 1 {
			t.Fatalf("unclamped value %v", a)
		}
	}
}

func TestNoisySigmaMatchesPaper(t *testing.T) {
	// Around a constant base the noise σ should be ~0.04 as in Fig. 5.
	n, _ := NewNoisy(Constant{U: 0.5}, 0.04, 1, 7)
	var xs []float64
	for i := 0; i < 5000; i++ {
		xs = append(xs, float64(n.At(units.Seconds(i))))
	}
	if m := stats.Mean(xs); math.Abs(m-0.5) > 0.01 {
		t.Errorf("noisy mean = %v, want ~0.5", m)
	}
	if s := stats.StdDev(xs); math.Abs(s-0.04) > 0.01 {
		t.Errorf("noisy std = %v, want ~0.04", s)
	}
}

func TestNoisySameTickSameNoise(t *testing.T) {
	n, _ := NewNoisy(Constant{U: 0.5}, 0.04, 1, 7)
	if n.At(3.1) != n.At(3.9) {
		t.Error("noise differs within one tick")
	}
	if n.At(3.0) == n.At(4.0) {
		t.Error("noise identical across ticks (suspicious)")
	}
}

func TestNoisyValidation(t *testing.T) {
	if _, err := NewNoisy(nil, 0.04, 1, 0); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewNoisy(Constant{}, -1, 1, 0); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := NewNoisy(Constant{}, 0.04, 0, 0); err == nil {
		t.Error("zero tick accepted")
	}
}

func TestSpiky(t *testing.T) {
	base := Constant{U: 0.2}
	s, err := NewSpiky(base, []Spike{{Start: 100, Duration: 20, Level: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(99); got != 0.2 {
		t.Errorf("before spike = %v", got)
	}
	if got := s.At(100); got != 0.95 {
		t.Errorf("at spike start = %v", got)
	}
	if got := s.At(119.9); got != 0.95 {
		t.Errorf("during spike = %v", got)
	}
	if got := s.At(120); got != 0.2 {
		t.Errorf("after spike = %v", got)
	}
}

func TestSpikyDoesNotLowerDemand(t *testing.T) {
	// A spike below the base level must not reduce demand.
	s, _ := NewSpiky(Constant{U: 0.8}, []Spike{{Start: 0, Duration: 10, Level: 0.3}})
	if got := s.At(5); got != 0.8 {
		t.Errorf("low spike lowered demand to %v", got)
	}
}

func TestSpikyValidation(t *testing.T) {
	if _, err := NewSpiky(nil, nil); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewSpiky(Constant{}, []Spike{{Duration: 0, Level: 0.5}}); err == nil {
		t.Error("zero duration spike accepted")
	}
	if _, err := NewSpiky(Constant{}, []Spike{{Duration: 5, Level: 1.5}}); err == nil {
		t.Error("level > 1 accepted")
	}
}

func TestPeriodicSpikes(t *testing.T) {
	spikes := PeriodicSpikes(50, 100, 10, 0.9, 3)
	if len(spikes) != 3 {
		t.Fatalf("count = %d", len(spikes))
	}
	wantStarts := []units.Seconds{50, 150, 250}
	for i, sp := range spikes {
		if sp.Start != wantStarts[i] || sp.Duration != 10 || sp.Level != 0.9 {
			t.Errorf("spike %d = %+v", i, sp)
		}
	}
}

func TestPRBSDeterministicAndBinary(t *testing.T) {
	p := PRBS{Low: 0.1, High: 0.7, Dwell: 10, Seed: 3}
	sawLow, sawHigh := false, false
	for i := 0; i < 100; i++ {
		tm := units.Seconds(i * 10)
		v := p.At(tm)
		if v != p.At(tm) {
			t.Fatal("PRBS non-deterministic")
		}
		switch v {
		case 0.1:
			sawLow = true
		case 0.7:
			sawHigh = true
		default:
			t.Fatalf("PRBS produced non-binary %v", v)
		}
	}
	if !sawLow || !sawHigh {
		t.Error("PRBS never switched")
	}
	zero := PRBS{Low: 0.3, Dwell: 0}
	if zero.At(5) != 0.3 {
		t.Error("zero dwell should return Low")
	}
}

func TestMarkovEventuallyVisitsBothStates(t *testing.T) {
	m := Markov{IdleU: 0.1, BusyU: 0.8, Dwell: 5, PIdleToBusy: 0.3, PBusyToIdle: 0.3, Seed: 9}
	sawIdle, sawBusy := false, false
	for i := 0; i < 200; i++ {
		switch m.At(units.Seconds(i * 5)) {
		case 0.1:
			sawIdle = true
		case 0.8:
			sawBusy = true
		}
	}
	if !sawIdle || !sawBusy {
		t.Errorf("Markov stuck: idle=%v busy=%v", sawIdle, sawBusy)
	}
	if m.At(123) != m.At(123) {
		t.Error("Markov non-deterministic")
	}
}

func TestGeneratorsAlwaysInRangeProperty(t *testing.T) {
	sq := PaperSquare(300)
	noisy, _ := NewNoisy(sq, 0.2, 1, 5)
	spiky, _ := NewSpiky(noisy, PeriodicSpikes(10, 100, 15, 1.0, 5))
	gens := []Generator{
		sq, noisy, spiky,
		PRBS{Low: 0, High: 1, Dwell: 7, Seed: 1},
		Markov{IdleU: 0, BusyU: 1, Dwell: 3, PIdleToBusy: 0.5, PBusyToIdle: 0.5, Seed: 2},
	}
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		tm := units.Seconds(math.Mod(math.Abs(raw), 1e5))
		for _, g := range gens {
			u := g.At(tm)
			if u < 0 || u > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpikyScheduleMatchesScan(t *testing.T) {
	// Overlapping spikes of different levels, including exact-boundary and
	// nested intervals: the compiled segment schedule must agree with the
	// naive per-spike scan at every boundary and interior instant.
	spikes := []Spike{
		{Start: 10, Duration: 20, Level: 0.6},
		{Start: 15, Duration: 30, Level: 0.9},
		{Start: 18, Duration: 4, Level: 0.7},
		{Start: 45, Duration: 5, Level: 1.0},
		{Start: 50, Duration: 5, Level: 0.5},
		{Start: 200, Duration: 1, Level: 0.8},
	}
	base := Constant{U: 0.2}
	sp, err := NewSpiky(base, spikes)
	if err != nil {
		t.Fatal(err)
	}
	naive := func(tm units.Seconds) units.Utilization {
		u := base.At(tm)
		for _, s := range spikes {
			if tm >= s.Start && tm < s.Start+s.Duration && s.Level > u {
				u = s.Level
			}
		}
		return u
	}
	for tm := units.Seconds(0); tm < 220; tm += 0.25 {
		if got, want := sp.At(tm), naive(tm); got != want {
			t.Fatalf("At(%v) = %v, want %v", tm, got, want)
		}
	}
}
