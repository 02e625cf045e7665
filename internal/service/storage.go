package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// defaultReqTimeout bounds one backend call made by the storage module.
// Local backends finish in microseconds; the bound exists for tiered
// backends whose Get/Fetch may cross the network (those also apply
// their own, tighter remote deadline).
const defaultReqTimeout = 30 * time.Second

// Storage is the storage module: it owns the Backend and calls it from
// the caller's goroutine. Lookups (Get, Fetch, List) run
// concurrently with no lock held, so a tiered Fetch waiting on its
// remote stalls no one; this relies on backends being safe for
// concurrent use (see Backend). One mutex makes a Put and the GC pass it
// triggers a single step for every other Put and Stats; a lookup racing
// it sees a cell either whole or not at all.
//
// Every public method takes the caller's context and derives a deadline
// (defaultReqTimeout) under it before touching the backend, so a stuck
// backend call is cancelled instead of hanging its caller. The
// footprint snapshot is lazy: a cap-less Put or a tiered write-back
// marks it stale, and Stats relists once if so.
type Storage struct {
	backend Backend
	// gc caps the cache tier; the zero value disables eviction.
	gc scenario.GCConfig

	// gets/hits count lookups without the lock, so a lookup never waits
	// on a Put or a relist.
	gets, hits atomic.Int64
	// stopped is set under mu, so Stop waits out an in-flight Put.
	stopped atomic.Bool

	// mu serializes Put+GC and Stats' relist, and guards stats and fresh.
	mu sync.Mutex
	// stats holds Puts, Evicted and the footprint; fresh marks Cells/Bytes current.
	stats StorageStats
	fresh bool
}

// StorageStats accounts the storage module's traffic.
type StorageStats struct {
	Gets    int64 `json:"gets"`
	Hits    int64 `json:"hits"`
	Puts    int64 `json:"puts"`
	Evicted int64 `json:"evicted"`
	// Cells / Bytes snapshot the backend footprint as of the last refresh:
	// a List on Stats when a Put or write-back has landed since, or a
	// capped Put's GC.
	Cells int64 `json:"cells"`
	Bytes int64 `json:"bytes"`
	// Tier is present when the backend is tiered (RemoteBackend): the
	// local/remote hit split, remote failure accounting, and the circuit
	// breaker's state. Nil for single-tier backends.
	Tier *TierStats `json:"tier,omitempty"`
}

// NewStorage builds the storage part over a backend. gc caps the cache
// tier (zero = unbounded); a capped configuration needs a backend
// implementing GCBackend.
func NewStorage(backend Backend, gc scenario.GCConfig) (*Storage, error) {
	if backend == nil {
		return nil, fmt.Errorf("storage: nil backend")
	}
	if gc.MaxBytes < 0 || gc.MaxCells < 0 {
		return nil, fmt.Errorf("storage: negative GC cap")
	}
	if _, ok := backend.(GCBackend); gc.Enabled() && !ok {
		return nil, fmt.Errorf("storage: backend %s does not support eviction (cache caps need a GCBackend)", backend.Name())
	}
	return &Storage{backend: backend, gc: gc}, nil
}

// Stop waits for an in-flight Put (and its GC pass) to finish; every
// later call fails with ErrStopped.
func (s *Storage) Stop() {
	s.mu.Lock()
	s.stopped.Store(true)
	s.mu.Unlock()
}

// ErrStopped reports a request against a stopped queue or storage.
var ErrStopped = fmt.Errorf("service: module stopped")

// begin rejects calls on a stopped module and derives the per-call
// deadline: the caller's context (already cancelled if the client went
// away) capped by the module bound.
func (s *Storage) begin(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if s.stopped.Load() {
		return nil, nil, ErrStopped
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, defaultReqTimeout)
	return ctx, cancel, nil
}

// Get looks a content key up in the backend.
func (s *Storage) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, false, err
	}
	defer cancel()
	return s.count(s.backend.Get(ctx, key))
}

// Fetch looks a key up with the spec available, letting a tiered
// backend resolve the miss remotely (the queue's workers use this so a
// miss costs the fleet one simulation, wherever it runs). Plain
// backends fall back to Get.
func (s *Storage) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	f, ok := s.backend.(Fetcher)
	if !ok {
		return s.Get(ctx, key)
	}
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, false, err
	}
	defer cancel()
	// The context carries the module to a tiered write-back, which
	// marks the footprint stale (see footprintChanged).
	return s.count(f.Fetch(context.WithValue(ctx, storageKey{}, s), spec, key))
}

// count accounts one lookup and passes its result through.
func (s *Storage) count(out *scenario.Outcome, ok bool, err error) (*scenario.Outcome, bool, error) {
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return out, ok, err
}

// storageKey is the context key under which Fetch passes its Storage.
type storageKey struct{}

// footprintChanged tells the Storage a Fetch runs under that a cell
// landed outside Put (a tiered write-back), so the next Stats relists.
// Outside a Storage call it does nothing.
func footprintChanged(ctx context.Context) {
	if s, ok := ctx.Value(storageKey{}).(*Storage); ok {
		s.mu.Lock()
		s.fresh = false
		s.mu.Unlock()
	}
}

// Put persists an outcome and, when caps are configured, trims the
// cache tier in the same locked step.
func (s *Storage) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return err
	}
	defer cancel()
	if err := s.backend.Put(ctx, spec, out); err != nil {
		return err
	}
	s.stats.Puts++
	return s.maybeGC(ctx)
}

// maybeGC follows a landed Put (caller holds mu): it marks the
// footprint stale, or runs the capped eviction pass whose exact result
// keeps it fresh.
func (s *Storage) maybeGC(ctx context.Context) error {
	s.fresh = false
	if s.gc.Enabled() {
		res, err := s.backend.(GCBackend).GC(ctx, s.gc)
		if err != nil {
			return err
		}
		s.stats.Evicted += int64(len(res.Evicted))
		s.stats.Cells = int64(res.Remaining)
		s.stats.Bytes = res.RemainingBytes
		s.fresh = true
	}
	return nil
}

// List inspects the backend's cells.
func (s *Storage) List(ctx context.Context) ([]scenario.CellInfo, error) {
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	return s.backend.List(ctx)
}

// Stats snapshots the module's accounting, relisting the footprint
// first when it is stale, and attaches the tier split when the backend
// keeps one.
func (s *Storage) Stats(ctx context.Context) (StorageStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, cancel, err := s.begin(ctx)
	if err != nil {
		return StorageStats{}, err
	}
	defer cancel()
	if !s.fresh {
		s.refreshFootprint(ctx)
	}
	st := s.stats
	st.Gets, st.Hits = s.gets.Load(), s.hits.Load()
	if ts, ok := s.backend.(TierStatter); ok {
		tier := ts.TierStats()
		st.Tier = &tier
	}
	return st, nil
}

// refreshFootprint recomputes the Cells/Bytes snapshot from a listing
// (caller holds mu).
func (s *Storage) refreshFootprint(ctx context.Context) {
	infos, err := s.backend.List(ctx)
	if err != nil {
		return // footprint is advisory; the next Stats retries
	}
	s.fresh = true
	s.stats.Cells = int64(len(infos))
	s.stats.Bytes = 0
	for _, info := range infos {
		s.stats.Bytes += info.Size
	}
}

// Degraded reports whether a tiered backend's breaker is not closed. It
// reads the mutex-guarded tier stats directly and takes no storage lock.
func (s *Storage) Degraded() bool {
	ts, ok := s.backend.(TierStatter)
	return ok && ts.TierStats().BreakerState != breakerClosed.String()
}
