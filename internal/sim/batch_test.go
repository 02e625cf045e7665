package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// batchJobs builds n independent jobs at distinct operating points: each
// holds a different fan speed over the noisy paper workload with its own
// seed, so every result differs and any cross-job interference shows.
func batchJobs(t testing.TB, n int) []Job {
	t.Helper()
	cfg := Default()
	cfg.Ambient = 30
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		noisy, err := workload.NewNoisy(workload.PaperSquare(600), 0.04, cfg.Tick, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = Job{
			Name:   fmt.Sprintf("hold-%d", i),
			Server: Factory(cfg),
			Config: RunConfig{
				Duration: 900,
				Workload: noisy,
				Policy:   HoldPolicy{Fan: units.RPM(2000 + 500*i)},
			},
		}
	}
	return jobs
}

// runBatch runs jobs the way a batch spec does: build one Lockstep over
// them, then run it once.
func runBatch(jobs []Job, opts BatchOptions) ([]*Result, error) {
	ls, err := NewLockstep(jobs, opts)
	if err != nil {
		return nil, err
	}
	return ls.Run()
}

func TestRunBatchMatchesSequential(t *testing.T) {
	// Sequential reference: fresh server per job, plain Run.
	want := runAlone(t, batchJobs(t, 6))

	for _, workers := range []int{1, 2, 4, 0} {
		results, err := runBatch(batchJobs(t, 6), BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if res == nil {
				t.Fatalf("workers=%d: nil result %d", workers, i)
			}
			// Metrics is a struct of comparable scalars: require
			// bit-identical equality, not tolerance.
			if res.Metrics != want[i].Metrics {
				t.Errorf("workers=%d job %d: parallel metrics %+v != sequential %+v",
					workers, i, res.Metrics, want[i].Metrics)
			}
		}
	}
}

func TestRunBatchDeterministicAcrossRuns(t *testing.T) {
	first, err := runBatch(batchJobs(t, 5), BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := runBatch(batchJobs(t, 5), BatchOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if again[i].Metrics != first[i].Metrics {
				t.Fatalf("repeat %d job %d: metrics drifted: %+v != %+v",
					rep, i, again[i].Metrics, first[i].Metrics)
			}
		}
	}
}

func TestRunBatchRejectsSharedPolicy(t *testing.T) {
	jobs := batchJobs(t, 2)
	shared := &feedbackPolicy{ref: 70, gain: 15, cap: 1}
	jobs[0].Config.Policy = shared
	jobs[1].Config.Policy = shared
	_, err := runBatch(jobs, BatchOptions{})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("shared policy accepted: err = %v", err)
	}
	if be.Index != 1 {
		t.Errorf("error blames job %d, want 1", be.Index)
	}
}

func TestRunBatchAllowsEqualValuePolicies(t *testing.T) {
	jobs := batchJobs(t, 2)
	jobs[0].Config.Policy = HoldPolicy{Fan: 2000}
	jobs[1].Config.Policy = HoldPolicy{Fan: 2000} // equal value, not aliased state
	if _, err := runBatch(jobs, BatchOptions{}); err != nil {
		t.Fatalf("equal value policies rejected: %v", err)
	}
}

// TestRunBatchPropagatesFirstErrorByIndex: with two defective jobs the
// lower index is blamed, and the batch fails as a whole — no job runs, so
// there are no results to return.
func TestRunBatchPropagatesFirstErrorByIndex(t *testing.T) {
	jobs := batchJobs(t, 4)
	jobs[1].Config.Duration = -1 // invalid: Run would reject it
	jobs[3].Config.Workload = nil
	results, err := runBatch(jobs, BatchOptions{Workers: 4})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("invalid job accepted: err = %v", err)
	}
	if be.Index != 1 {
		t.Errorf("first error reported for job %d, want 1 (lowest index)", be.Index)
	}
	if results != nil {
		t.Errorf("failed batch returned %d results", len(results))
	}
}

func TestRunBatchNilFactory(t *testing.T) {
	jobs := batchJobs(t, 2)
	jobs[0].Server = nil
	if _, err := runBatch(jobs, BatchOptions{}); err == nil {
		t.Fatal("nil ServerFactory accepted")
	}
}

func TestRunBatchEmpty(t *testing.T) {
	for _, workers := range []int{1, 2, 0} {
		results, err := runBatch([]Job{}, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != 0 {
			t.Fatalf("workers=%d: empty batch returned %d results", workers, len(results))
		}
	}
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 0} {
		const n = 100
		var counts [n]int32
		if err := ParallelFor(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelForNegativeCount(t *testing.T) {
	if err := ParallelFor(-1, 2, func(int) {}); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic not propagated")
		}
	}()
	_ = ParallelFor(8, 4, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
