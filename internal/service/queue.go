package service

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// Job states reported by the API.
const (
	// StateQueued: accepted, waiting for a worker.
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

// reply is a JobStatus as the queue hands it to the API: the outcome
// stays encoded (Outcome is unset), the bytes the store holds and every
// waiter of a fresh job shares, for the API to splice into the body.
type reply struct {
	JobStatus
	outcome []byte
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
	outcome []byte        // encoded, set when the job is done
	done    chan struct{} // closed when the job leaves queued/running
}

// snapshot returns the job's status under its lock.
func (j *job) snapshot() reply {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := reply{JobStatus: JobStatus{Key: j.key, State: j.state, Cached: j.cached, Error: j.err}}
	if j.state == StateDone {
		r.outcome = j.outcome
	}
	return r
}

// Queue is the job-queue module: submitted specs are deduplicated
// against the store and the in-flight table (singleflight), then put on
// one job channel that a pool of workers drains, so a long job holds up
// only the worker running it. A submit that races the previous winner's
// retire window can enqueue a duplicate; whichever worker takes it
// re-checks the store first (see worker). Each worker runs the
// scenario layer, which picks the lockstep engine for eligible specs.
type Queue struct {
	storage *Storage
	// workers is the worker count (≥ 1).
	workers int
	// engineWorkers caps each run's internal engine parallelism
	// (scenario.Spec.Workers; 0 = all cores).
	engineWorkers int
	// run executes one spec; tests may stub it. Defaults to scenario.Run.
	run func(scenario.Spec) (*scenario.Outcome, error)

	mu       sync.Mutex
	inflight map[string]*job
	// failed holds the failed jobs still in inflight, oldest first.
	failed   []*job
	accept   bool
	stopping bool
	// submitters tracks Submits past the accept check but not yet
	// enqueued, so Stop never closes the job channel under a sender.
	submitters sync.WaitGroup

	jobs chan *job
	wg   sync.WaitGroup

	stats struct {
		mu                                                 sync.Mutex
		submitted, cacheHits, coalesced, simulated, failed int64
	}
}

// maxFailedJobs bounds the failed jobs the in-flight table keeps for
// pollers; past it the oldest failure is forgotten (its key polls as
// unknown, and a resubmit still retries it).
const maxFailedJobs = 64

// NewQueue builds the queue over the storage part, drained by workers
// goroutines (at least one), each run capped at engineWorkers engine
// workers (0 = all cores).
func NewQueue(storage *Storage, workers, engineWorkers int) (*Queue, error) {
	if workers < 1 {
		return nil, fmt.Errorf("queue: need at least one worker (got %d)", workers)
	}
	if engineWorkers < 0 {
		return nil, fmt.Errorf("queue: negative engine worker cap %d", engineWorkers)
	}
	return &Queue{
		storage: storage, workers: workers, engineWorkers: engineWorkers, run: scenario.Run,
		inflight: make(map[string]*job),
		// The buffer absorbs submit bursts without blocking the HTTP
		// handler; a full channel applies backpressure on the submitter.
		jobs: make(chan *job, 256),
	}, nil
}

// Start launches the workers and opens the intake.
func (q *Queue) Start() {
	for i := 0; i < q.workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	q.mu.Lock()
	q.accept = true
	q.mu.Unlock()
}

// Stop closes the intake and waits for the workers. Jobs already
// executing finish (their results are persisted for the next process);
// jobs still queued are failed with a shutdown error instead of run, so
// Stop returns promptly even with a deep backlog.
func (q *Queue) Stop() {
	q.mu.Lock()
	q.accept = false
	q.stopping = true
	q.mu.Unlock()
	q.submitters.Wait()
	close(q.jobs)
	q.wg.Wait()
}

// specError marks a Submit failure caused by the spec itself (validation
// or hashing): the client's fault, unlike a storage error or a shutdown.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// Submit accepts a spec: validate, hash, answer from the store when the
// cell exists, coalesce onto an in-flight job when one is already
// queued or running (singleflight), otherwise enqueue it for the
// workers. The returned status is the submit-time snapshot; poll Status
// (or wait on the HTTP API) for completion. The store check is a Fetch
// — on a tiered daemon a miss reads through to (and may be simulated
// by) the shared remote tier, so the key's first simulation happens
// once fleet-wide, wherever the singleflight that owns it runs.
func (q *Queue) Submit(ctx context.Context, spec scenario.Spec) (reply, error) {
	if err := spec.Validate(); err != nil {
		return reply{}, &specError{err}
	}
	spec.Workers = q.engineWorkers
	key, err := scenario.Key(spec)
	if err != nil {
		return reply{}, &specError{err}
	}
	q.addStat(&q.stats.submitted)

	// Store first: a finished cell answers immediately, no job needed.
	if enc, ok, err := q.storage.Fetch(ctx, spec, key); err != nil {
		return reply{}, err
	} else if ok {
		q.addStat(&q.stats.cacheHits)
		return storedReply(key, enc), nil
	}

	q.mu.Lock()
	if !q.accept {
		q.mu.Unlock()
		return reply{}, ErrStopped
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
		q.failed = slices.DeleteFunc(q.failed, func(f *job) bool { return f == j })
	}
	j := &job{key: key, spec: spec, state: StateQueued, done: make(chan struct{})}
	q.inflight[key] = j
	q.submitters.Add(1)
	q.mu.Unlock()

	q.jobs <- j
	q.submitters.Done()
	return j.snapshot(), nil
}

// submitCanonical answers a submit whose body is a stored spec's
// canonical JSON straight from the local tiers, counted as Submit
// counts a store hit. A lookup answers only a cell whose spec passes
// Validate and hashes to the cell's key under this code (see Backend),
// and a body that hashes to that key is that spec's canonical JSON:
// decoding, validating and hashing the body again would re-prove what
// the lookup proved. ok=false, with nothing counted, leaves the body to
// the decode and Submit: a body that is not canonical, a miss, a lookup
// error or a stopped storage module.
func (q *Queue) submitCanonical(ctx context.Context, body []byte) (reply, bool) {
	key, enc, ok := q.storage.getCanonical(ctx, body)
	if !ok {
		return reply{}, false
	}
	q.addStat(&q.stats.submitted)
	q.addStat(&q.stats.cacheHits)
	return storedReply(key, enc), true
}

// Status reports a key's progress: in-flight jobs first (including
// failures held for inspection), then the store. ok=false means the key
// is neither in flight nor stored (on a tiered daemon the lookup reads
// through to the remote, so a leader-owned key polls as done here too).
func (q *Queue) Status(ctx context.Context, key string) (reply, bool, error) {
	q.mu.Lock()
	j, inflight := q.inflight[key]
	q.mu.Unlock()
	if inflight {
		return j.snapshot(), true, nil
	}
	enc, ok, err := q.storage.Get(ctx, key)
	if err != nil || !ok {
		return reply{}, false, err
	}
	return storedReply(key, enc), true, nil
}

// storedReply answers a key from its stored outcome.
func storedReply(key string, enc []byte) reply {
	return reply{JobStatus: JobStatus{Key: key, State: StateDone, Cached: true}, outcome: enc}
}

// Wait blocks until the key's in-flight job completes, the context is
// cancelled, or returns the stored status immediately. ok=false when
// the key is unknown.
func (q *Queue) Wait(ctx context.Context, key string) (reply, bool, error) {
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
		statuses = append(statuses, j.snapshot().JobStatus)
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

// runJob runs one spec, failing the job on a runner panic (a recorded
// horizon too long to allocate) so one submit cannot kill the daemon.
func (q *Queue) runJob(spec scenario.Spec) (out *scenario.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("scenario run panicked: %v", r)
		}
	}()
	return q.run(spec)
}

// runEncoded runs one spec and encodes its outcome once, for the Put
// and for every waiter.
func (q *Queue) runEncoded(spec scenario.Spec) ([]byte, error) {
	out, err := q.runJob(spec)
	if err != nil {
		return nil, err
	}
	return encodeOutcome(out)
}

// worker drains the job channel: run, persist, publish, retire. A job
// is counted and retired before its done channel closes, so a woken
// waiter already sees it out of the in-flight listing and in the stats.
func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.jobs {
		q.mu.Lock()
		stopping := q.stopping
		q.mu.Unlock()
		if stopping {
			// Shutdown: fail the backlog instead of simulating it.
			q.fail(j, "scenariod stopping before execution")
			continue
		}

		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()

		// Re-check the store: a submit can race the previous winner's
		// Put/retire window (store miss observed before the Put, in-flight
		// check after the retire) and enqueue a duplicate job. A job is
		// retired only after its Put, so whichever worker takes the
		// duplicate finds the cell here and answers with a store read
		// instead of a simulation: "one simulation per unique spec" holds
		// unconditionally. The re-check is a Fetch: on a tiered daemon it
		// reads through to the shared tier and may delegate the simulation
		// to the remote — local engine work is the last resort. Workers
		// run under the daemon's lifetime context, not any submitter's.
		if enc, ok, err := q.storage.Fetch(context.Background(), j.spec, j.key); err == nil && ok {
			j.mu.Lock()
			j.state = StateDone
			j.cached = true
			j.outcome = enc
			j.mu.Unlock()
			q.addStat(&q.stats.cacheHits)
			q.mu.Lock()
			delete(q.inflight, j.key)
			q.mu.Unlock()
			close(j.done)
			continue
		}

		enc, err := q.runEncoded(j.spec)
		if err == nil {
			// Persist before publishing: once the job leaves the
			// in-flight table, pollers must find the cell in the store.
			err = q.storage.Put(context.Background(), j.spec, enc)
		}

		if err != nil {
			q.fail(j, err.Error())
			continue
		}
		j.mu.Lock()
		j.state = StateDone
		j.outcome = enc
		j.mu.Unlock()
		q.addStat(&q.stats.simulated)
		q.mu.Lock()
		delete(q.inflight, j.key)
		q.mu.Unlock()
		close(j.done)
	}
}

// fail marks a job failed and keeps it in the in-flight table so
// pollers see the error, until a resubmit replaces it (see Submit) or
// maxFailedJobs newer failures push it out. The state change and the
// failed list move together under q.mu, so Submit never sees a failed
// job that is not on the list.
func (q *Queue) fail(j *job, msg string) {
	q.mu.Lock()
	j.mu.Lock()
	j.state = StateFailed
	j.err = msg
	j.mu.Unlock()
	q.failed = append(q.failed, j)
	if len(q.failed) > maxFailedJobs {
		delete(q.inflight, q.failed[0].key)
		q.failed = q.failed[1:]
	}
	q.mu.Unlock()
	q.addStat(&q.stats.failed)
	close(j.done)
}

// addStat bumps one counter under the stats lock.
func (q *Queue) addStat(c *int64) {
	q.stats.mu.Lock()
	*c++
	q.stats.mu.Unlock()
}
