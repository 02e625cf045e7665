package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opFunc performs operation seq of client c. It returns the operation's
// latency (the caller's wait, without any output check the op does after
// the reply), whether it ran a simulation (a fresh spec) rather than
// reading a stored outcome, and an error when the operation failed or
// returned a wrong outcome.
type opFunc func(c, seq int) (lat time.Duration, fresh bool, err error)

// sample is one completed operation.
type sample struct {
	start  time.Time
	lat    time.Duration
	fresh  bool
	failed bool
}

// loopResult is what a measurement window produced.
type loopResult struct {
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	// errs keeps the first few failures for the report.
	errs []error
}

// closedLoop runs clients goroutines, each performing perClient operations.
// Each sends its next operation only after the previous one returned — the
// closed loop a sweep script forms when it waits on each reply — so a
// slower system takes longer instead of growing a queue. The work is fixed,
// so every commit sends the same requests and ends with the same store.
func closedLoop(clients, perClient int, op opFunc) loopResult {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		res loopResult
	)
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var own []sample
			var errs []error
			for seq := 0; seq < perClient; seq++ {
				t := time.Now()
				lat, fresh, err := op(c, seq)
				own = append(own, sample{start: t, lat: lat, fresh: fresh, failed: err != nil})
				if err != nil && len(errs) < 5 {
					errs = append(errs, fmt.Errorf("client %d op %d: %w", c, seq, err))
				}
			}
			mu.Lock()
			res.samples = append(res.samples, own...)
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].start.Before(res.samples[j].start) })
	return res
}

// failed counts the failed operations.
func (r loopResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latenciesMS returns the sorted latencies, in milliseconds, of the samples
// keep selects. A failed operation counts as missing every latency limit:
// it sorts above every completed one as +Inf.
func latenciesMS(samples []sample, keep func(sample) bool) []float64 {
	var ms []float64
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		if s.failed {
			ms = append(ms, math.Inf(1))
			continue
		}
		ms = append(ms, float64(s.lat)/float64(time.Millisecond))
	}
	sort.Float64s(ms)
	return ms
}

// quantile returns the q-quantile of sorted values by the nearest-rank rule
// and how many samples lie strictly above that rank. A tail percentile is
// only trustworthy with at least ten samples beyond it, so p99 needs 1000
// samples.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// minBeyond is the percentile rule: the highest reported percentile must
// have at least this many samples above it.
const minBeyond = 10

// quartiles returns the three cut points of sorted values by the
// "exclusive" method of Python's statistics.quantiles(data, n=4), the rule
// the benchmark's spread check is defined by.
func quartiles(sorted []float64) [3]float64 {
	var out [3]float64
	ld := len(sorted)
	if ld == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if ld == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("reading peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}
