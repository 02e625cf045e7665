package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/scenario"
)

// RemoteBackend is the tiered store: a local Backend (the on-disk
// StoreBackend or MemBackend) fronted onto another scenariod reached
// through a Client. Reads check the local tier first and read through
// to the remote on a miss (write-backing hits into the local tier);
// Fetch — the queue workers' miss path — delegates the whole simulation
// to the remote daemon, whose singleflight queue dedups across the
// fleet, so N daemons sharing one leader cost exactly one simulation
// per unique spec. Puts land locally first and are queued to a
// background writer that writes them through to the remote.
//
// The headline guarantee is the failure semantics: remote trouble can
// only cost cache hits, never correctness or availability. Every remote
// call carries a bounded deadline; a run of consecutive failures trips
// a circuit breaker that degrades the daemon to local-only, with timed
// half-open probes to recover; write-through retries with jittered
// backoff and swallows terminal errors. No remote outcome — down, slow,
// erroring — ever fails a Get, Fetch, or Put.
type RemoteBackend struct {
	local  Backend
	client *Client

	// timeout bounds each remote call (Get/Fetch/Push attempt).
	timeout time.Duration
	// retries/backoff shape the write-through retry loop.
	retries int
	backoff time.Duration
	// now is the clock (injected by tests).
	now func() time.Time

	br *breaker

	// writes is the write-through queue the background writer drains.
	writes chan writeThrough
	// root cancels in-flight remote work on Close.
	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	st TierStats
}

// writeThrough is one queued write-through.
type writeThrough struct {
	spec scenario.Spec
	enc  []byte
}

// TierStats is the tier split a tiered backend reports into
// StorageStats.Tier.
type TierStats struct {
	// LocalHits / RemoteHits split where reads were answered.
	LocalHits  int64 `json:"local_hits"`
	RemoteHits int64 `json:"remote_hits"`
	// RemoteMisses counts healthy remote round trips that found nothing
	// (the key exists nowhere in the fleet yet).
	RemoteMisses int64 `json:"remote_misses"`
	// RemoteErrors counts failed remote calls (timeouts, transport
	// errors, non-404 statuses) across reads and write-throughs.
	RemoteErrors int64 `json:"remote_errors"`
	// DegradedSkips counts remote calls not even attempted because the
	// breaker was open — the local-only operating mode at work.
	DegradedSkips int64 `json:"degraded_skips"`
	// WriteThroughs / WriteDropped account the Put replication path:
	// completed remote writes and writes abandoned (queue full,
	// retries exhausted, or breaker open).
	WriteThroughs int64 `json:"write_throughs"`
	WriteDropped  int64 `json:"write_dropped"`
	// BreakerState is "closed", "open" or "half-open"; BreakerOpens
	// counts closed→open transitions; DegradedMS accumulates total time
	// spent outside the closed state.
	BreakerState string  `json:"breaker_state"`
	BreakerOpens int64   `json:"breaker_opens"`
	DegradedMS   float64 `json:"degraded_ms"`
}

// TierStatter is implemented by backends that keep a tier split; the
// storage module attaches it to StorageStats.
type TierStatter interface {
	TierStats() TierStats
}

// RemoteOption shapes a RemoteBackend.
type RemoteOption func(*RemoteBackend)

// RemoteTimeout bounds each remote call; the default is 5s.
func RemoteTimeout(d time.Duration) RemoteOption {
	return func(r *RemoteBackend) {
		if d > 0 {
			r.timeout = d
		}
	}
}

// NewRemoteBackend builds the tiered backend over a local tier and a
// client pointed at the remote daemon. Call Close when done: it stops
// the background writer and abandons in-flight remote work.
func NewRemoteBackend(local Backend, client *Client, opts ...RemoteOption) *RemoteBackend {
	r := &RemoteBackend{
		local:   local,
		client:  client,
		timeout: 5 * time.Second,
		retries: 3,
		backoff: 50 * time.Millisecond,
		now:     time.Now,
		br:      newBreaker(3, 5*time.Second, time.Now),
	}
	for _, opt := range opts {
		opt(r)
	}
	r.root, r.cancel = context.WithCancel(context.Background())
	r.writes = make(chan writeThrough, 128)
	r.wg.Add(1)
	go r.writer()
	return r
}

// Name identifies both tiers.
func (r *RemoteBackend) Name() string {
	return fmt.Sprintf("tiered(%s -> %s)", r.local.Name(), r.client.Base())
}

// Close stops the background writer and cancels in-flight remote work.
// Queued write-throughs not yet attempted are dropped (and counted);
// the local tier is never touched.
func (r *RemoteBackend) Close() error {
	r.cancel()
	close(r.writes)
	r.wg.Wait()
	return nil
}

// GetEncoded checks the local tier, then reads through to the remote on
// a miss. Key-only reads cannot write back (the local tiers key by spec,
// and an Outcome does not carry its spec) — the Fetch path, which has
// the spec in hand, is the one that populates the local tier. A local
// hit is the local tier's bytes; a remote hit decodes the remote's reply
// and encodes its outcome once. Remote trouble degrades to a plain miss.
func (r *RemoteBackend) GetEncoded(ctx context.Context, key string) ([]byte, bool, error) {
	if enc, ok, err := getEncoded(ctx, r.local, key); r.answeredLocally(ok, err) {
		return enc, ok, err
	}
	return r.remoteRead(ctx, func(ctx context.Context) (JobStatus, error) {
		js, err := r.client.Get(ctx, key)
		if IsNotFound(err) {
			// A 404 is a healthy remote that simply doesn't have the key:
			// an empty status, which remoteRead counts as a miss.
			return JobStatus{}, nil
		}
		return js, err
	})
}

// Get is GetEncoded with the outcome decoded.
func (r *RemoteBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	return getDecoded(r.GetEncoded(ctx, key))
}

// FetchEncoded resolves a miss with the spec in hand: local first, then
// a blocking submit to the remote daemon — the remote simulates (its
// singleflight dedups across every daemon fetching the same spec) and
// the outcome, encoded once, is written back locally. Remote trouble
// returns a miss so the local worker runs the simulation itself.
func (r *RemoteBackend) FetchEncoded(ctx context.Context, spec scenario.Spec, key string) ([]byte, bool, error) {
	if enc, ok, err := getEncoded(ctx, r.local, key); r.answeredLocally(ok, err) {
		return enc, ok, err
	}
	enc, ok, err := r.remoteRead(ctx, func(ctx context.Context) (JobStatus, error) {
		return r.client.Submit(ctx, spec, true)
	})
	if ok {
		// Write-back: the next read of this key is a local hit. Failure
		// is tolerable — the outcome is already in hand and re-fetchable.
		_ = putEncoded(ctx, r.local, spec, enc)
	}
	return enc, ok, err
}

// Fetch is FetchEncoded with the outcome decoded.
func (r *RemoteBackend) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	return getDecoded(r.FetchEncoded(ctx, spec, key))
}

// answeredLocally counts a local-tier hit and reports whether the local
// lookup answers the read: a hit or an error.
func (r *RemoteBackend) answeredLocally(ok bool, err error) bool {
	if ok {
		r.count(func(st *TierStats) { st.LocalHits++ })
	}
	return ok || err != nil
}

// remoteRead answers a local miss with one remote call (see call) and
// returns the reply's outcome encoded. A failed call is a miss, and so
// is a healthy reply without a finished outcome: in flight on the remote
// is not an error, not a hit either — the local queue will fetch (and
// coalesce on the remote's job).
func (r *RemoteBackend) remoteRead(ctx context.Context, read func(context.Context) (JobStatus, error)) ([]byte, bool, error) {
	var js JobStatus
	if err := r.call(ctx, func(ctx context.Context) (err error) {
		js, err = read(ctx)
		return err
	}); err != nil {
		return nil, false, nil
	}
	if js.State != StateDone || js.Outcome == nil {
		r.count(func(st *TierStats) { st.RemoteMisses++ })
		return nil, false, nil
	}
	r.count(func(st *TierStats) { st.RemoteHits++ })
	return encoded(js.Outcome, true, nil)
}

// errDegraded is call's error when the open breaker refused the call.
var errDegraded = errors.New("service: remote tier degraded")

// call makes one remote call, the only way RemoteBackend reaches its
// remote: it is refused with errDegraded while the breaker is open,
// bounded by the per-call timeout, and its result counts against the
// breaker. An error that arrives once the caller's own context is done
// (a client hung up, the backend closed) says nothing about the remote:
// it counts as neither a failure nor a remote error, and only frees the
// breaker's probe slot if the call held it.
func (r *RemoteBackend) call(ctx context.Context, f func(context.Context) error) error {
	if !r.br.allow() {
		r.count(func(st *TierStats) { st.DegradedSkips++ })
		return errDegraded
	}
	rctx, cancel := context.WithTimeout(ctx, r.timeout)
	err := f(rctx)
	cancel()
	switch {
	case err == nil:
		r.br.success()
	case ctx.Err() != nil:
		r.br.release()
	default:
		r.br.failure()
		r.count(func(st *TierStats) { st.RemoteErrors++ })
	}
	return err
}

// PutEncoded lands the outcome in the local tier (errors here are real —
// the local store is the daemon's correctness tier) and then queues the
// write-through to the background writer, which retries it.
// Write-through failure never fails the Put.
func (r *RemoteBackend) PutEncoded(ctx context.Context, spec scenario.Spec, enc []byte) error {
	if err := putEncoded(ctx, r.local, spec, enc); err != nil {
		return err
	}
	select {
	case r.writes <- writeThrough{spec: spec, enc: enc}:
	default:
		// Full queue: drop rather than block the Put, which holds the
		// storage module's Put lock. The cell is safe locally; only the
		// shared tier misses it.
		r.count(func(st *TierStats) { st.WriteDropped++ })
	}
	return nil
}

// Put encodes the outcome for PutEncoded.
func (r *RemoteBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return putDecoded(ctx, r, spec, out)
}

// writer drains the write-through queue.
func (r *RemoteBackend) writer() {
	defer r.wg.Done()
	for wt := range r.writes {
		select {
		case <-r.root.Done():
			r.count(func(st *TierStats) { st.WriteDropped++ })
			continue // drain the queue, counting drops
		default:
		}
		r.pushRetry(r.root, wt.spec, wt.enc)
	}
}

// pushRetry attempts the remote write up to retries times with jittered
// exponential backoff, honoring the breaker. Terminal failure is
// counted, never returned.
func (r *RemoteBackend) pushRetry(ctx context.Context, spec scenario.Spec, enc []byte) {
	delay := r.backoff
	for attempt := 0; attempt < r.retries && ctx.Err() == nil; attempt++ {
		err := r.call(ctx, func(ctx context.Context) error { return r.client.Push(ctx, spec, enc) })
		if err == nil {
			r.count(func(st *TierStats) { st.WriteThroughs++ })
			return
		}
		if errors.Is(err, errDegraded) {
			break
		}
		if attempt < r.retries-1 {
			// Jitter the backoff off the wall clock's low bits so
			// synchronized retry storms decorrelate.
			jitter := time.Duration(r.now().UnixNano()) % (delay/2 + 1)
			select {
			case <-time.After(delay + jitter):
			case <-ctx.Done():
			}
			delay *= 2
		}
	}
	r.count(func(st *TierStats) { st.WriteDropped++ })
}

// List inspects the local tier only: listings are daemon inventory, not
// a fleet-wide census.
func (r *RemoteBackend) List(ctx context.Context) ([]scenario.CellInfo, error) {
	return r.local.List(ctx)
}

// Len counts the local tier.
func (r *RemoteBackend) Len(ctx context.Context) (int, error) { return r.local.Len(ctx) }

// TierStats snapshots the tier counters plus the breaker's state.
func (r *RemoteBackend) TierStats() TierStats {
	r.mu.Lock()
	st := r.st
	r.mu.Unlock()
	st.BreakerState = r.br.state().String()
	st.BreakerOpens = r.br.opens()
	st.DegradedMS = float64(r.br.degraded()) / float64(time.Millisecond)
	return st
}

// count mutates the tier counters under the lock.
func (r *RemoteBackend) count(f func(*TierStats)) {
	r.mu.Lock()
	f(&r.st)
	r.mu.Unlock()
}

// breakerState enumerates the circuit breaker's states.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a consecutive-failure circuit breaker with timed half-open
// probes: threshold consecutive failures open it; after cooldown the
// next allow() admits exactly one probe (half-open); the probe's
// success closes the breaker, its failure re-opens it for another
// cooldown. It also accounts total time spent degraded (open or
// half-open) for the stats surface.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	cur           breakerState
	consecutive   int
	openedAt      time.Time
	probing       bool
	openCount     int64
	degradedSince time.Time
	degradedTotal time.Duration
}

// newBreaker builds a closed breaker.
func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a remote call may proceed. In the open state it
// transitions to half-open once the cooldown has elapsed, admitting a
// single probe; concurrent callers during the probe are refused.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.cur {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.cur = breakerHalfOpen
			b.probing = true
			return true
		}
		return false
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a healthy remote call, closing the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.probing = false
	if b.cur != breakerClosed {
		b.degradedTotal += b.now().Sub(b.degradedSince)
		b.cur = breakerClosed
	}
}

// release ends a call whose caller gave up before the remote answered:
// the state and the failure count stay, and a half-open probe's slot is
// freed, so the next call probes instead of the breaker staying
// half-open for good.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// failure records a failed remote call: threshold consecutive failures
// trip the breaker; a failed half-open probe re-opens it immediately.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	b.probing = false
	switch b.cur {
	case breakerClosed:
		if b.consecutive >= b.threshold {
			b.open()
		}
	case breakerHalfOpen:
		b.cur = breakerOpen
		b.openedAt = b.now()
	}
}

// open transitions closed→open (caller holds the lock).
func (b *breaker) open() {
	b.cur = breakerOpen
	b.openedAt = b.now()
	b.degradedSince = b.openedAt
	b.openCount++
}

// state reads the current state (advancing open→half-open is left to
// allow; state is a pure read).
func (b *breaker) state() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cur
}

// opens counts closed→open transitions.
func (b *breaker) opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.openCount
}

// degraded totals the time spent outside closed, including the current
// degraded interval when one is in progress.
func (b *breaker) degraded() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.degradedTotal
	if b.cur != breakerClosed {
		d += b.now().Sub(b.degradedSince)
	}
	return d
}
