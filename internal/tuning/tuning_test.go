package tuning

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/units"
)

// linearPlant is a first-order lag with static gain and a whole-step
// measurement delay: the analytic stand-in for the server around one
// operating point. With pole a = exp(-h/tau) and one-step delay, a P-only
// loop crosses the stability boundary at K_u = 1 / ((1-a)·|g|).
type linearPlant struct {
	g      float64 // °C per rpm, negative (more fan, cooler)
	tau    float64 // seconds
	h      float64 // control period, seconds
	t0     float64 // temperature at the operating speed s0
	s0     float64
	nDelay int // measurement delay in whole steps

	temp float64
	hist []float64
}

func newLinearPlant(g, tau, h, t0, s0 float64, nDelay int) *linearPlant {
	p := &linearPlant{g: g, tau: tau, h: h, t0: t0, s0: s0, nDelay: nDelay}
	p.Reset()
	return p
}

func (p *linearPlant) Reset() {
	p.temp = p.t0
	p.hist = p.hist[:0]
}

func (p *linearPlant) Step(s units.RPM) units.Celsius {
	ss := p.t0 + p.g*(float64(s)-p.s0)
	a := math.Exp(-p.h / p.tau)
	p.temp = ss + (p.temp-ss)*a
	p.hist = append(p.hist, p.temp)
	idx := len(p.hist) - 1 - p.nDelay
	if idx < 0 {
		idx = 0
	}
	return units.Celsius(p.hist[idx])
}

func (p *linearPlant) ControlPeriod() units.Seconds { return units.Seconds(p.h) }

func (p *linearPlant) analyticKu() float64 {
	a := math.Exp(-p.h / p.tau)
	return 1 / ((1 - a) * math.Abs(p.g))
}

func TestClassifyVerdicts(t *testing.T) {
	n := 200
	sustained := make([]float64, n)
	decaying := make([]float64, n)
	growing := make([]float64, n)
	quiet := make([]float64, n)
	for i := range sustained {
		ph := 2 * math.Pi * float64(i) / 12
		sustained[i] = 75 + 2*math.Sin(ph)
		decaying[i] = 75 + 2*math.Exp(-float64(i)/40)*math.Sin(ph)
		growing[i] = 75 + 0.5*math.Exp(float64(i)/60)*math.Sin(ph)
		quiet[i] = 75
	}
	cases := []struct {
		name string
		xs   []float64
		want Verdict
	}{
		{"sustained", sustained, Sustained},
		{"decaying", decaying, Decaying},
		{"growing", growing, Growing},
		{"quiet", quiet, Quiet},
	}
	for _, tc := range cases {
		if got := Classify(tc.xs, 0.3, 0.35); got.Verdict != tc.want {
			t.Errorf("%s: verdict = %v (trend %.2f), want %v", tc.name, got.Verdict, got.Trend, tc.want)
		}
	}
}

func TestClassifyMeasuresAmplitudeAndPeriod(t *testing.T) {
	n := 300
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 75 + 3*math.Sin(2*math.Pi*float64(i)/15)
	}
	o := Classify(xs, 0.3, 0.35)
	if math.Abs(o.Amplitude-3) > 0.3 {
		t.Errorf("amplitude = %v, want ~3", o.Amplitude)
	}
	if math.Abs(o.Period-15) > 1.5 {
		t.Errorf("period = %v, want ~15", o.Period)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Quiet: "quiet", Decaying: "decaying", Sustained: "sustained",
		Growing: "growing", Verdict(9): "Verdict(9)",
	} {
		if v.String() != want {
			t.Errorf("String(%d) = %q", int(v), v.String())
		}
	}
}

func znConfig(kpLo, kpHi float64) ZNConfig {
	return ZNConfig{
		RefTemp:  75,
		RefSpeed: 2000,
		Limits:   control.Limits{Min: 100, Max: 100000},
		KPLo:     kpLo,
		KPHi:     kpHi,
	}
}

func TestFindUltimateMatchesAnalyticBoundary(t *testing.T) {
	// Server-like operating point at 2000 rpm: g = -7.7e-3 C/rpm,
	// tau = 90 s, h = 30 s, one-step measurement delay.
	p := newLinearPlant(-7.7e-3, 90, 30, 75, 2000, 1)
	want := p.analyticKu()
	u, err := FindUltimate(p, znConfig(want/10, want*4))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(u.Ku) / want; ratio < 0.7 || ratio > 1.3 {
		t.Errorf("Ku = %v, analytic %v (ratio %.2f)", u.Ku, want, ratio)
	}
	// Ultimate period: z = e^{±i*acos(a/2)} -> period = 2*pi/theta steps.
	a := math.Exp(-30.0 / 90)
	theta := math.Acos(a / 2)
	wantPu := 2 * math.Pi / theta * 30
	if ratio := float64(u.Pu) / wantPu; ratio < 0.6 || ratio > 1.6 {
		t.Errorf("Pu = %v, analytic %v", u.Pu, wantPu)
	}
}

func TestFindUltimateGainScalesWithPlantGain(t *testing.T) {
	// The low-gain operating point (6000 rpm-like, |g| 8x smaller) must
	// yield a proportionally larger Ku: the heart of Fig. 3.
	pLow := newLinearPlant(-7.7e-3, 90, 30, 75, 2000, 1)
	pHigh := newLinearPlant(-0.96e-3, 64, 30, 68, 6000, 1)
	uLow, err := FindUltimate(pLow, znConfig(50, 4000))
	if err != nil {
		t.Fatal(err)
	}
	cfgHigh := znConfig(400, 32000)
	cfgHigh.RefSpeed = 6000
	uHigh, err := FindUltimate(pHigh, cfgHigh)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(uHigh.Ku) / float64(uLow.Ku)
	if ratio < 4 || ratio > 14 {
		t.Errorf("Ku(6000)/Ku(2000) = %.2f, want ~8 (plant gain ratio)", ratio)
	}
}

func TestFindUltimateBracketValidation(t *testing.T) {
	p := newLinearPlant(-7.7e-3, 90, 30, 75, 2000, 1)
	if _, err := FindUltimate(p, znConfig(0, 100)); err == nil {
		t.Error("zero lower bracket accepted")
	}
	if _, err := FindUltimate(p, znConfig(100, 50)); err == nil {
		t.Error("inverted bracket accepted")
	}
	// Lower bracket already unstable.
	ku := p.analyticKu()
	if _, err := FindUltimate(p, znConfig(ku*3, ku*6)); err == nil {
		t.Error("unstable lower bracket accepted")
	}
	// Upper bracket still stable.
	if _, err := FindUltimate(p, znConfig(ku/100, ku/50)); err == nil {
		t.Error("stable upper bracket accepted")
	}
	bad := znConfig(1, 100)
	bad.Limits = control.Limits{Min: 100, Max: 10}
	if _, err := FindUltimate(p, bad); err == nil {
		t.Error("bad limits accepted")
	}
}

func TestRuleGainsClassicPIDMatchesPaperEqs(t *testing.T) {
	// Eqs. 5-7: KP = 0.6 Ku; KI = KP*(2/Pu); KD = KP*(Pu/8). With the
	// per-step discretization at h: KI_step = KP*h*2/Pu, KD_step = KP*Pu/(8h).
	u := Ultimate{Ku: 1000, Pu: 120}
	g, err := ClassicPID.Gains(u, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.KP-600) > 1e-9 {
		t.Errorf("KP = %v, want 600", g.KP)
	}
	if want := 600 * 30 * 2 / 120.0; math.Abs(g.KI-want) > 1e-9 {
		t.Errorf("KI = %v, want %v", g.KI, want)
	}
	if want := 600 * 120 / (8 * 30.0); math.Abs(g.KD-want) > 1e-9 {
		t.Errorf("KD = %v, want %v", g.KD, want)
	}
}

func TestRuleGainsValidation(t *testing.T) {
	if _, err := ClassicPID.Gains(Ultimate{Ku: 0, Pu: 10}, 30); err == nil {
		t.Error("zero Ku accepted")
	}
	if _, err := ClassicPID.Gains(Ultimate{Ku: 10, Pu: 0}, 30); err == nil {
		t.Error("zero Pu accepted")
	}
	if _, err := ClassicPID.Gains(Ultimate{Ku: 10, Pu: 10}, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestRuleVariants(t *testing.T) {
	u := Ultimate{Ku: 1000, Pu: 100}
	pOnly, _ := ClassicP.Gains(u, 30)
	if pOnly.KI != 0 || pOnly.KD != 0 || pOnly.KP != 500 {
		t.Errorf("classic-p = %+v", pOnly)
	}
	pi, _ := ClassicPI.Gains(u, 30)
	if pi.KD != 0 || pi.KI == 0 {
		t.Errorf("classic-pi = %+v", pi)
	}
	no, _ := NoOvershoot.Gains(u, 30)
	some, _ := SomeOvershoot.Gains(u, 30)
	if no.KP >= some.KP {
		t.Error("no-overshoot must be gentler than some-overshoot")
	}
}

func TestRuleByName(t *testing.T) {
	r, err := RuleByName("classic-pid")
	if err != nil || r.Name != "classic-pid" {
		t.Errorf("RuleByName = %+v, %v", r, err)
	}
	if _, err := RuleByName("nope"); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestTunedGainsStabilizeThePlant(t *testing.T) {
	// End-to-end: tune at the operating point, then verify the full PID
	// closed loop converges to the set-point without sustained oscillation.
	// The gentler some-overshoot ZN-type rule is the simulator's default:
	// with P_u only ~5 control samples, quarter-decay classic gains sit on
	// the discrete stability boundary.
	p := newLinearPlant(-7.7e-3, 90, 30, 78, 2000, 1)
	region, u, err := TuneRegion(p, znConfig(50, 4000), SomeOvershoot)
	if err != nil {
		t.Fatal(err)
	}
	if u.Ku <= 0 || u.Pu <= 0 {
		t.Fatalf("bad ultimate %+v", u)
	}
	pid, err := control.NewPID(control.PIDConfig{
		Gains:    region.Gains,
		RefSpeed: 2000,
		RefTemp:  75,
		Limits:   control.Limits{Min: 100, Max: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	s := units.RPM(2000)
	trace := make([]float64, 0, 200)
	for k := 0; k < 200; k++ {
		m := p.Step(s)
		trace = append(trace, float64(m))
		s = pid.Decide(control.FanInputs{Meas: m, Actual: s})
	}
	// Late-window error must be small and not oscillating.
	late := trace[150:]
	for _, v := range late {
		if math.Abs(v-75) > 1.0 {
			t.Fatalf("closed loop did not settle: late value %v", v)
		}
	}
	if o := Classify(late, 0.3, 0.35); o.Verdict == Sustained || o.Verdict == Growing {
		t.Errorf("tuned loop oscillates: %+v", o)
	}
}

func TestRelayTuneAgreesWithBisection(t *testing.T) {
	p := newLinearPlant(-7.7e-3, 90, 30, 75, 2000, 1)
	uZN, err := FindUltimate(p, znConfig(50, 4000))
	if err != nil {
		t.Fatal(err)
	}
	uRelay, err := RelayTune(p, RelayConfig{
		RefTemp:   75,
		RefSpeed:  2000,
		Amplitude: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(uRelay.Ku) / float64(uZN.Ku); ratio < 0.5 || ratio > 2 {
		t.Errorf("relay Ku %v vs bisection Ku %v (ratio %.2f)", uRelay.Ku, uZN.Ku, ratio)
	}
	if ratio := float64(uRelay.Pu) / float64(uZN.Pu); ratio < 0.5 || ratio > 2 {
		t.Errorf("relay Pu %v vs bisection Pu %v", uRelay.Pu, uZN.Pu)
	}
}

func TestRelayTuneValidation(t *testing.T) {
	p := newLinearPlant(-7.7e-3, 90, 30, 75, 2000, 1)
	if _, err := RelayTune(p, RelayConfig{Amplitude: 0}); err == nil {
		t.Error("zero amplitude accepted")
	}
	// A relay on a plant with no dynamics (gain 0) produces no cycle.
	flat := newLinearPlant(0, 90, 30, 75, 2000, 0)
	if _, err := RelayTune(flat, RelayConfig{RefTemp: 75, RefSpeed: 2000, Amplitude: 300}); err == nil {
		t.Error("flat plant relay should fail")
	}
}
