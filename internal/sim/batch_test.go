package sim

import (
	"errors"
	"sync/atomic"
	"testing"
)

// runBatch runs jobs the way a batch spec does: build one Lockstep over
// them, then run it once.
func runBatch(jobs []Job, opts BatchOptions) ([]*Result, error) {
	ls, err := NewLockstep(jobs, opts)
	if err != nil {
		return nil, err
	}
	return ls.Run()
}

func TestRunBatchAllowsEqualValuePolicies(t *testing.T) {
	jobs := lockstepJobs(t, 2)
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
	jobs := lockstepJobs(t, 4)
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
