package service

import (
	"context"
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
// per unique spec. Puts land locally first and write through to the
// remote (async by default, sync when configured).
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
	// sync makes Put block on the write-through instead of queueing it.
	sync bool
	// retries/backoff shape the write-through retry loop.
	retries int
	backoff time.Duration
	// now is the clock (injected by tests).
	now func() time.Time

	br *breaker

	// writes is the async write-through queue; nil when sync.
	writes chan writeThrough
	// root cancels in-flight remote work on Close.
	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	st TierStats
}

// writeThrough is one queued async write-through.
type writeThrough struct {
	spec scenario.Spec
	out  *scenario.Outcome
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
	// completed remote writes and writes abandoned (queue full on async,
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

// RemoteSyncWrites makes Put block on the write-through (still never
// failing the Put) instead of queueing it to the background writer.
func RemoteSyncWrites(sync bool) RemoteOption {
	return func(r *RemoteBackend) { r.sync = sync }
}

// RemoteRetry shapes the write-through retry loop: up to n attempts with
// exponential backoff from base (jittered). Defaults: 3 attempts, 50ms.
func RemoteRetry(n int, base time.Duration) RemoteOption {
	return func(r *RemoteBackend) {
		if n > 0 {
			r.retries = n
		}
		if base > 0 {
			r.backoff = base
		}
	}
}

// RemoteBreaker shapes the circuit breaker: trip after threshold
// consecutive failures, probe again after cooldown. Defaults: 3, 5s.
func RemoteBreaker(threshold int, cooldown time.Duration) RemoteOption {
	return func(r *RemoteBackend) {
		if threshold > 0 {
			r.br.threshold = threshold
		}
		if cooldown > 0 {
			r.br.cooldown = cooldown
		}
	}
}

// remoteClock injects a fake clock (tests).
func remoteClock(now func() time.Time) RemoteOption {
	return func(r *RemoteBackend) {
		r.now = now
		r.br.now = now
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
	if !r.sync {
		r.writes = make(chan writeThrough, 128)
		r.wg.Add(1)
		go r.writer()
	}
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
	if r.writes != nil {
		close(r.writes)
	}
	r.wg.Wait()
	return nil
}

// Get checks the local tier, then reads through to the remote on a
// miss. Key-only reads cannot write back (the local tiers key by spec,
// and an Outcome does not carry its spec) — the Fetch path, which has
// the spec in hand, is the one that populates the local tier. Remote
// trouble degrades to a plain miss.
func (r *RemoteBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	out, ok, err := r.local.Get(ctx, key)
	if err != nil || ok {
		if ok {
			r.count(func(st *TierStats) { st.LocalHits++ })
		}
		return out, ok, err
	}
	if !r.br.allow() {
		r.count(func(st *TierStats) { st.DegradedSkips++ })
		return nil, false, nil
	}
	rctx, cancel := context.WithTimeout(ctx, r.timeout)
	st, err := r.client.Get(rctx, key)
	cancel()
	if err != nil {
		if IsNotFound(err) {
			// A 404 is a healthy remote that simply doesn't have the key.
			r.br.success()
			r.count(func(st *TierStats) { st.RemoteMisses++ })
			return nil, false, nil
		}
		r.remoteFailure(err)
		return nil, false, nil
	}
	r.br.success()
	if st.State != StateDone || st.Outcome == nil {
		// In flight on the remote: not an error, not a hit either — the
		// local queue will fetch (and coalesce on the remote's job).
		r.count(func(st *TierStats) { st.RemoteMisses++ })
		return nil, false, nil
	}
	r.count(func(st *TierStats) { st.RemoteHits++ })
	return st.Outcome, true, nil
}

// Fetch resolves a miss with the spec in hand: local first, then a
// blocking submit to the remote daemon — the remote simulates (its
// singleflight dedups across every daemon fetching the same spec) and
// the outcome is write-backed locally. Remote trouble returns a miss so
// the local worker runs the simulation itself.
func (r *RemoteBackend) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	out, ok, err := r.local.Get(ctx, key)
	if err != nil || ok {
		if ok {
			r.count(func(st *TierStats) { st.LocalHits++ })
		}
		return out, ok, err
	}
	if !r.br.allow() {
		r.count(func(st *TierStats) { st.DegradedSkips++ })
		return nil, false, nil
	}
	rctx, cancel := context.WithTimeout(ctx, r.timeout)
	st, err := r.client.Submit(rctx, spec, true)
	cancel()
	if err != nil {
		r.remoteFailure(err)
		return nil, false, nil
	}
	r.br.success()
	if st.State != StateDone || st.Outcome == nil {
		r.count(func(st *TierStats) { st.RemoteMisses++ })
		return nil, false, nil
	}
	r.count(func(st *TierStats) { st.RemoteHits++ })
	// Write-back: the next read of this key is a local hit. Failure is
	// tolerable — the outcome is already in hand and re-fetchable.
	_ = r.local.Put(ctx, spec, st.Outcome)
	return st.Outcome, true, nil
}

// Put lands the outcome in the local tier (errors here are real — the
// local store is the daemon's correctness tier) and then writes through
// to the remote: synchronously with retries when configured, otherwise
// queued to the background writer. Write-through failure never fails
// the Put.
func (r *RemoteBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	if err := r.local.Put(ctx, spec, out); err != nil {
		return err
	}
	if r.sync {
		r.pushRetry(ctx, spec, out)
		return nil
	}
	select {
	case r.writes <- writeThrough{spec: spec, out: out}:
	default:
		// Full queue: drop rather than block the storage goroutine. The
		// cell is safe locally; only the shared tier misses it.
		r.count(func(st *TierStats) { st.WriteDropped++ })
	}
	return nil
}

// writer drains the async write-through queue.
func (r *RemoteBackend) writer() {
	defer r.wg.Done()
	for wt := range r.writes {
		select {
		case <-r.root.Done():
			r.count(func(st *TierStats) { st.WriteDropped++ })
			continue // drain the queue, counting drops
		default:
		}
		r.pushRetry(r.root, wt.spec, wt.out)
	}
}

// pushRetry attempts the remote write up to retries times with jittered
// exponential backoff, honoring the breaker. Terminal failure is
// counted, never returned.
func (r *RemoteBackend) pushRetry(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) {
	delay := r.backoff
	for attempt := 0; attempt < r.retries; attempt++ {
		if ctx.Err() != nil {
			break
		}
		if !r.br.allow() {
			r.count(func(st *TierStats) { st.DegradedSkips++ })
			break
		}
		rctx, cancel := context.WithTimeout(ctx, r.timeout)
		err := r.client.Push(rctx, spec, out)
		cancel()
		if err == nil {
			r.br.success()
			r.count(func(st *TierStats) { st.WriteThroughs++ })
			return
		}
		r.remoteFailure(err)
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

// GC trims the local tier (the remote runs its own caps).
func (r *RemoteBackend) GC(ctx context.Context, cfg scenario.GCConfig) (scenario.GCResult, error) {
	gcb, ok := r.local.(GCBackend)
	if !ok {
		return scenario.GCResult{}, fmt.Errorf("service: local tier %s does not support eviction", r.local.Name())
	}
	return gcb.GC(ctx, cfg)
}

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

// remoteFailure records one failed remote call.
func (r *RemoteBackend) remoteFailure(err error) {
	r.br.failure()
	r.count(func(st *TierStats) { st.RemoteErrors++ })
	_ = err
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
