package service

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/scenario"
)

// Job states reported by the API.
const (
	// StateQueued: accepted, waiting for a shard worker.
	StateQueued = "queued"
	// StateRunning: a worker is simulating the spec.
	StateRunning = "running"
	// StateDone: the outcome is available (from the store or fresh).
	StateDone = "done"
	// StateFailed: the run errored; Error carries the message. A
	// re-submit of the same spec retries.
	StateFailed = "failed"
)

// JobStatus is a snapshot of one submitted scenario's progress — the
// JSON shape the API returns for submits and polls.
type JobStatus struct {
	// Key is the spec's content address.
	Key string `json:"key"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Cached reports that the outcome was served from the store without
	// simulating (set on submits that hit the cache and on polls of
	// store-resident keys).
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure message when State is StateFailed.
	Error string `json:"error,omitempty"`
	// Outcome is attached when State is StateDone.
	Outcome *scenario.Outcome `json:"outcome,omitempty"`
}

// QueueStats accounts the queue's traffic.
type QueueStats struct {
	// Submitted counts every accepted submit (including duplicates).
	Submitted int64 `json:"submitted"`
	// CacheHits counts submits answered from the store without queueing.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts submits deduplicated onto an in-flight job — the
	// singleflight wins: a thundering herd on one spec is 1 simulation
	// plus N-1 coalesced submits.
	Coalesced int64 `json:"coalesced"`
	// Simulated counts jobs actually executed by workers.
	Simulated int64 `json:"simulated"`
	// Failed counts jobs whose run errored.
	Failed int64 `json:"failed"`
	// Inflight is the current queued+running population.
	Inflight int64 `json:"inflight"`
}

// job is one in-flight scenario.
type job struct {
	key  string
	spec scenario.Spec

	mu      sync.Mutex
	state   string
	cached  bool
	err     string
	outcome *scenario.Outcome
	done    chan struct{} // closed when the job leaves queued/running
}

// snapshot returns the job's status under its lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{Key: j.key, State: j.state, Cached: j.cached, Error: j.err}
	if j.state == StateDone {
		st.Outcome = j.outcome
	}
	return st
}

// Queue is the job-queue module: submitted specs are deduplicated
// against the store and the in-flight table (singleflight), then fanned
// over N sharded workers. A spec's key always lands on the same shard
// (hash sharding), so two submits racing past the dedup window would
// still serialize; each worker runs the scenario layer, which picks the
// lockstep engine for eligible specs — the "sharded lockstep workers".
type Queue struct {
	storage *Storage
	// shards is the worker count (≥ 1).
	shards int
	// engineWorkers caps each run's internal engine parallelism
	// (scenario.Spec.Workers; 0 = all cores).
	engineWorkers int
	// run executes one spec; tests may stub it. Defaults to scenario.Run.
	run func(scenario.Spec) (*scenario.Outcome, error)

	mu       sync.Mutex
	inflight map[string]*job
	accept   bool
	stopping bool
	// submitters tracks Submits past the accept check but not yet
	// enqueued, so Stop never closes a shard channel under a sender.
	submitters sync.WaitGroup

	queues []chan *job
	wg     sync.WaitGroup

	stats struct {
		mu                                                 sync.Mutex
		submitted, cacheHits, coalesced, simulated, failed int64
	}
}

// NewQueue builds the queue module over the storage module.
func NewQueue(storage *Storage, shards, engineWorkers int) *Queue {
	return &Queue{storage: storage, shards: shards, engineWorkers: engineWorkers, run: scenario.Run}
}

// Name implements Module.
func (q *Queue) Name() string { return "queue" }

// Configure validates the shard count and allocates the job table and
// shard channels.
func (q *Queue) Configure() error {
	if q.storage == nil {
		return fmt.Errorf("queue: nil storage module")
	}
	if q.shards < 1 {
		return fmt.Errorf("queue: need at least one shard worker (got %d)", q.shards)
	}
	if q.engineWorkers < 0 {
		return fmt.Errorf("queue: negative engine worker cap %d", q.engineWorkers)
	}
	q.inflight = make(map[string]*job)
	q.queues = make([]chan *job, q.shards)
	for i := range q.queues {
		// The buffer absorbs submit bursts without blocking the HTTP
		// handler; a full shard applies backpressure on the submitter.
		q.queues[i] = make(chan *job, 256)
	}
	return nil
}

// Start launches the shard workers and opens the intake.
func (q *Queue) Start() error {
	for i := range q.queues {
		q.wg.Add(1)
		go q.worker(q.queues[i])
	}
	q.mu.Lock()
	q.accept = true
	q.mu.Unlock()
	return nil
}

// Stop closes the intake and waits for the workers. Jobs already
// executing finish (their results are persisted for the next process);
// jobs still queued are failed with a shutdown error instead of run, so
// Stop returns promptly even with a deep backlog.
func (q *Queue) Stop() error {
	q.mu.Lock()
	q.accept = false
	q.stopping = true
	q.mu.Unlock()
	q.submitters.Wait()
	for i := range q.queues {
		close(q.queues[i])
	}
	q.wg.Wait()
	return nil
}

// shardOf maps a content key to its worker. Keys are SHA-256 hex, so
// the leading 8 hex digits are already uniformly distributed.
func (q *Queue) shardOf(key string) int {
	if len(key) < 8 {
		return 0
	}
	v, err := strconv.ParseUint(key[:8], 16, 64)
	if err != nil {
		return 0
	}
	return int(v % uint64(q.shards))
}

// specError marks a Submit failure caused by the spec itself (validation
// or hashing): the client's fault, unlike a storage error or a shutdown.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// Submit accepts a spec: validate, hash, answer from the store when the
// cell exists, coalesce onto an in-flight job when one is already
// queued or running (singleflight), otherwise enqueue on the key's
// shard. The returned status is the submit-time snapshot; poll Status
// (or wait on the HTTP API) for completion. The store check is a Fetch
// — on a tiered daemon a miss reads through to (and may be simulated
// by) the shared remote tier, so the key's first simulation happens
// once fleet-wide, wherever the singleflight that owns it runs.
func (q *Queue) Submit(ctx context.Context, spec scenario.Spec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, &specError{err}
	}
	spec.Workers = q.engineWorkers
	key, err := scenario.Key(spec)
	if err != nil {
		return JobStatus{}, &specError{err}
	}
	q.addStat(&q.stats.submitted)

	// Store first: a finished cell answers immediately, no job needed.
	if out, ok, err := q.storage.Fetch(ctx, spec, key); err != nil {
		return JobStatus{}, err
	} else if ok {
		q.addStat(&q.stats.cacheHits)
		return JobStatus{Key: key, State: StateDone, Cached: true, Outcome: out}, nil
	}

	q.mu.Lock()
	if !q.accept {
		q.mu.Unlock()
		return JobStatus{}, ErrStopped
	}
	if j, ok := q.inflight[key]; ok {
		// Singleflight: identical spec already queued or running —
		// unless it failed, in which case this submit retries it.
		j.mu.Lock()
		failed := j.state == StateFailed
		j.mu.Unlock()
		if !failed {
			q.mu.Unlock()
			q.addStat(&q.stats.coalesced)
			return j.snapshot(), nil
		}
		delete(q.inflight, key)
	}
	j := &job{key: key, spec: spec, state: StateQueued, done: make(chan struct{})}
	q.inflight[key] = j
	q.submitters.Add(1)
	q.mu.Unlock()

	q.queues[q.shardOf(key)] <- j
	q.submitters.Done()
	return j.snapshot(), nil
}

// Status reports a key's progress: in-flight jobs first (including
// failures held for inspection), then the store. ok=false means the key
// is neither in flight nor stored (on a tiered daemon the lookup reads
// through to the remote, so a leader-owned key polls as done here too).
func (q *Queue) Status(ctx context.Context, key string) (JobStatus, bool, error) {
	q.mu.Lock()
	j, inflight := q.inflight[key]
	q.mu.Unlock()
	if inflight {
		return j.snapshot(), true, nil
	}
	out, ok, err := q.storage.Get(ctx, key)
	if err != nil {
		return JobStatus{}, false, err
	}
	if !ok {
		return JobStatus{}, false, nil
	}
	return JobStatus{Key: key, State: StateDone, Cached: true, Outcome: out}, true, nil
}

// Wait blocks until the key's in-flight job completes, the context is
// cancelled, or returns the stored status immediately. ok=false when
// the key is unknown.
func (q *Queue) Wait(ctx context.Context, key string) (JobStatus, bool, error) {
	q.mu.Lock()
	j, inflight := q.inflight[key]
	q.mu.Unlock()
	if inflight {
		select {
		case <-j.done:
			return j.snapshot(), true, nil
		case <-ctx.Done():
			return j.snapshot(), true, ctx.Err()
		}
	}
	return q.Status(ctx, key)
}

// Inflight lists the in-flight jobs' statuses, sorted by key (outcomes
// omitted — listings are inventory, not payload).
func (q *Queue) Inflight() []JobStatus {
	q.mu.Lock()
	statuses := make([]JobStatus, 0, len(q.inflight))
	for _, j := range q.inflight {
		st := j.snapshot()
		st.Outcome = nil
		statuses = append(statuses, st)
	}
	q.mu.Unlock()
	// Sort after collection so map order never reaches the API.
	sort.Slice(statuses, func(i, k int) bool { return statuses[i].Key < statuses[k].Key })
	return statuses
}

// Stats snapshots the queue accounting.
func (q *Queue) Stats() QueueStats {
	q.stats.mu.Lock()
	s := QueueStats{
		Submitted: q.stats.submitted,
		CacheHits: q.stats.cacheHits,
		Coalesced: q.stats.coalesced,
		Simulated: q.stats.simulated,
		Failed:    q.stats.failed,
	}
	q.stats.mu.Unlock()
	q.mu.Lock()
	for _, j := range q.inflight {
		j.mu.Lock()
		if j.state == StateQueued || j.state == StateRunning {
			s.Inflight++
		}
		j.mu.Unlock()
	}
	q.mu.Unlock()
	return s
}

// worker drains one shard: run, persist, publish, retire. A job is
// counted and retired before its done channel closes, so a woken waiter
// already sees it out of the in-flight listing and in the stats.
func (q *Queue) worker(jobs <-chan *job) {
	defer q.wg.Done()
	for j := range jobs {
		q.mu.Lock()
		stopping := q.stopping
		q.mu.Unlock()
		if stopping {
			// Shutdown: fail the backlog instead of simulating it.
			j.mu.Lock()
			j.state = StateFailed
			j.err = "scenariod stopping before execution"
			j.mu.Unlock()
			q.addStat(&q.stats.failed)
			close(j.done)
			continue
		}

		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()

		// Re-check the store: a submit can race the previous winner's
		// Put/retire window (store miss observed before the Put, in-flight
		// check after the retire) and enqueue a duplicate job. The worker
		// absorbs that race with a store read instead of a simulation, so
		// "one simulation per unique spec" holds unconditionally. The
		// re-check is a Fetch: on a tiered daemon it reads through to the
		// shared tier and may delegate the simulation to the remote —
		// local engine work is the last resort. Workers run under the
		// daemon's lifetime context, not any submitter's.
		if out, ok, err := q.storage.Fetch(context.Background(), j.spec, j.key); err == nil && ok {
			j.mu.Lock()
			j.state = StateDone
			j.cached = true
			j.outcome = out
			j.mu.Unlock()
			q.addStat(&q.stats.cacheHits)
			q.mu.Lock()
			delete(q.inflight, j.key)
			q.mu.Unlock()
			close(j.done)
			continue
		}

		out, err := q.run(j.spec)
		if err == nil {
			// Persist before publishing: once the job leaves the
			// in-flight table, pollers must find the cell in the store.
			err = q.storage.Put(context.Background(), j.spec, out)
		}

		j.mu.Lock()
		if err != nil {
			j.state = StateFailed
			j.err = err.Error()
		} else {
			j.state = StateDone
			j.outcome = out
		}
		j.mu.Unlock()

		if err != nil {
			q.addStat(&q.stats.failed)
			// Failed jobs stay in the table so pollers see the error;
			// a re-submit replaces them (see Submit).
			close(j.done)
			continue
		}
		q.addStat(&q.stats.simulated)
		q.mu.Lock()
		delete(q.inflight, j.key)
		q.mu.Unlock()
		close(j.done)
	}
}

// addStat bumps one counter under the stats lock.
func (q *Queue) addStat(c *int64) {
	q.stats.mu.Lock()
	*c++
	q.stats.mu.Unlock()
}
