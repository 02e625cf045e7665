// Package filter provides the moving-average utilization predictor of the
// predictive set-point scheduler (Sec. V-B of the paper, following Coskun
// et al. [19]). The filters are allocation-free per sample.
package filter

import "fmt"

// MovingAverage is a fixed-window arithmetic-mean filter. Before the window
// fills it averages the samples seen so far.
type MovingAverage struct {
	window []float64
	next   int
	count  int
	sum    float64
}

// NewMovingAverage returns a moving-average filter over n samples.
// It panics if n < 1.
func NewMovingAverage(n int) *MovingAverage {
	if n < 1 {
		panic(fmt.Sprintf("filter: moving average window %d < 1", n))
	}
	return &MovingAverage{window: make([]float64, n)}
}

// Update consumes one sample and returns the mean of the window.
func (m *MovingAverage) Update(x float64) float64 {
	if m.count < len(m.window) {
		m.count++
	} else {
		m.sum -= m.window[m.next]
	}
	m.window[m.next] = x
	m.sum += x
	if m.next++; m.next == len(m.window) {
		m.next = 0
	}
	return m.sum / float64(m.count)
}

// Reset empties the window.
func (m *MovingAverage) Reset() {
	for i := range m.window {
		m.window[i] = 0
	}
	m.next, m.count, m.sum = 0, 0, 0
}

// MAPredictor predicts the next sample as the moving average of the last n
// samples — the predictor the paper adopts from [19] to filter out the
// noise term in CPU utilization.
type MAPredictor struct {
	ma *MovingAverage
}

// NewMAPredictor returns a moving-average predictor over n samples.
func NewMAPredictor(n int) *MAPredictor { return &MAPredictor{ma: NewMovingAverage(n)} }

// Observe records one sample and returns the prediction for the next.
func (p *MAPredictor) Observe(x float64) float64 { return p.ma.Update(x) }

// Reset clears the predictor's window in place — indistinguishable from a
// freshly constructed predictor, without the allocation (policy Reset sits
// on the warm batch re-step path).
func (p *MAPredictor) Reset() { p.ma.Reset() }
