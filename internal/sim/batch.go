package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// This file holds the batch engine's job description and its worker-pool
// primitive. Experiments that used to run their scenarios one after
// another on one core (Table III's five solutions, Monte Carlo seed fans,
// a rack's nodes) describe each run as a Job and hand the set to
// NewLockstep (lockstep.go), which steps them concurrently. Results are
// order-stable — job k's result lands in slot k regardless of scheduling
// — and bit-identical to running each job alone through Run, because every
// job owns its server (via ServerFactory), its policy, and all other
// mutable state.
//
// Usage:
//
//	jobs := []sim.Job{
//		{Name: "baseline", Server: factoryA, Config: rcA},
//		{Name: "proposed", Server: factoryB, Config: rcB},
//	}
//	ls, err := sim.NewLockstep(jobs, sim.BatchOptions{})
//	...
//	results, err := ls.Run()
//	// results[0] is "baseline", results[1] is "proposed".

// ServerFactory builds a fresh PhysicalServer for one batch job. Each
// invocation must return a server no other job touches; experiments stop
// sharing one mutable server across runs by constructing per-job here.
type ServerFactory func() (*PhysicalServer, error)

// Factory adapts a Config into a ServerFactory.
func Factory(cfg Config) ServerFactory {
	return func() (*PhysicalServer, error) { return NewPhysicalServer(cfg) }
}

// Job is one independent simulation in a batch.
type Job struct {
	// Name labels the job in error messages (optional).
	Name string
	// Server builds the job's private platform. Required.
	Server ServerFactory
	// Config is the run to execute. Its Policy must not be shared with
	// any other job in the batch: policies are stateful and a Lockstep
	// steps jobs concurrently. Workload generators are safe to share —
	// they are deterministic and read-only during a run.
	Config RunConfig
}

// BatchOptions tunes batch execution.
type BatchOptions struct {
	// Workers caps the number of concurrent jobs. Zero or negative means
	// GOMAXPROCS. A lockstep pass takes at most one worker per four lanes
	// it steps. One worker degenerates to a deterministic sequential run,
	// useful for bit-identical comparisons and benchmarks.
	Workers int
}

// BatchError reports the job that failed a batch.
type BatchError struct {
	Index int    // failing job's position in the jobs slice
	Name  string // failing job's name
	Err   error
}

// Error implements error.
func (e *BatchError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("sim: batch job %d (%s): %v", e.Index, e.Name, e.Err)
	}
	return fmt.Sprintf("sim: batch job %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying job error.
func (e *BatchError) Unwrap() error { return e.Err }

// ParallelFor runs fn(0..n-1) across a pool of workers and blocks until
// every call returns. Each index runs exactly once; fn must confine its
// writes to per-index state (slot i of a result slice) for the output to
// be deterministic. Experiments whose unit of work is not a sim.Run (e.g.
// the Ziegler–Nichols tuning sweep) use it directly. Workers <= 0 means
// GOMAXPROCS. A panicking fn is re-panicked on the calling goroutine.
func ParallelFor(n, workers int, fn func(i int)) error {
	if n < 0 {
		return fmt.Errorf("sim: negative iteration count %d", n)
	}
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicked == nil {
								panicked = r
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return nil
}
