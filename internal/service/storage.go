package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/scenario"
)

// Storage is the storage module: it owns the Backend and calls it from
// the caller's goroutine, on the caller's context (the HTTP request's,
// or context.Background() for the queue's workers). It adds no deadline
// of its own: a backend whose calls can block bounds them itself (see
// Backend). Lookups (Get, Fetch, getCanonical, List) and Stats run
// concurrently with no lock held, so a tiered Fetch waiting on its
// remote stalls no one; this relies on backends being safe for
// concurrent use. Puts run one at a time under a mutex, so Stop can
// wait out the last one before the daemon closes a tiered backend's
// write-through queue under it.
type Storage struct {
	backend Backend

	// gets/hits/puts count calls without the lock, so a lookup or Stats
	// never waits on a Put.
	gets, hits, puts atomic.Int64
	// stopped is set under mu, so Stop waits out an in-flight Put.
	stopped atomic.Bool

	// mu serializes Puts and Stop.
	mu sync.Mutex
}

// StorageStats accounts the storage module's traffic.
type StorageStats struct {
	Gets int64 `json:"gets"`
	Hits int64 `json:"hits"`
	Puts int64 `json:"puts"`
	// Cells / Bytes are the backend footprint, counted by one List per
	// Stats call.
	Cells int64 `json:"cells"`
	Bytes int64 `json:"bytes"`
	// Tier is present when the backend is tiered (RemoteBackend): the
	// local/remote hit split, remote failure accounting, and the circuit
	// breaker's state. Nil for single-tier backends.
	Tier *TierStats `json:"tier,omitempty"`
}

// NewStorage builds the storage part over a backend.
func NewStorage(backend Backend) (*Storage, error) {
	if backend == nil {
		return nil, fmt.Errorf("storage: nil backend")
	}
	return &Storage{backend: backend}, nil
}

// Stop waits for an in-flight Put to finish; every later call fails
// with ErrStopped.
func (s *Storage) Stop() {
	s.mu.Lock()
	s.stopped.Store(true)
	s.mu.Unlock()
}

// ErrStopped reports a request against a stopped queue or storage.
var ErrStopped = fmt.Errorf("service: module stopped")

// Get looks a content key up in the backend and returns its outcome
// encoded (see encodedBackend). The bytes are shared and must not be
// modified.
func (s *Storage) Get(ctx context.Context, key string) ([]byte, bool, error) {
	if s.stopped.Load() {
		return nil, false, ErrStopped
	}
	return s.count(getEncoded(ctx, s.backend, key))
}

// Fetch looks a key up with the spec available, letting a tiered
// backend resolve the miss remotely (the queue's workers use this so a
// miss costs the fleet one simulation, wherever it runs). Plain
// backends fall back to Get.
func (s *Storage) Fetch(ctx context.Context, spec scenario.Spec, key string) ([]byte, bool, error) {
	f, ok := s.backend.(Fetcher)
	if !ok {
		return s.Get(ctx, key)
	}
	if s.stopped.Load() {
		return nil, false, ErrStopped
	}
	if ef, ok := f.(encodedFetcher); ok {
		return s.count(ef.FetchEncoded(ctx, spec, key))
	}
	return s.count(encoded(f.Fetch(ctx, spec, key)))
}

// getCanonical answers a submit body that is a stored spec's canonical
// JSON (the bytes scenario.CanonicalJSON returns, which Client.Submit
// sends) from the backend's local tiers, without decoding it: it hashes
// the body into the spec's content key and returns the key and the
// cell's encoded outcome, counting the lookup as Fetch counts a hit.
// A backend answers a key only with the outcome of the spec that hashes
// to it (see Backend), so the cell is the one the decoding path would
// answer for the body. Any other result, a miss, a lookup error or a
// stopped module, is ok=false and counts nothing, so the caller can
// take the decoding path as if it had not looked.
func (s *Storage) getCanonical(ctx context.Context, body []byte) (string, []byte, bool) {
	if s.stopped.Load() {
		return "", nil, false
	}
	key := scenario.KeyOf(body)
	enc, ok, err := getLocal(ctx, s.backend, key)
	if err != nil || !ok {
		return "", nil, false
	}
	s.count(enc, true, nil)
	return key, enc, true
}

// count accounts one lookup and passes its result through.
func (s *Storage) count(enc []byte, ok bool, err error) ([]byte, bool, error) {
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return enc, ok, err
}

// Put persists an encoded outcome (json.Marshal's output, which the
// backend may keep: the caller must not modify it afterwards).
func (s *Storage) Put(ctx context.Context, spec scenario.Spec, enc []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return ErrStopped
	}
	if err := putEncoded(ctx, s.backend, spec, enc); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// List inspects the backend's cells.
func (s *Storage) List(ctx context.Context) ([]scenario.CellInfo, error) {
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	return s.backend.List(ctx)
}

// Stats snapshots the module's accounting, counts the footprint with
// one List, and attaches the tier split when the backend keeps one.
func (s *Storage) Stats(ctx context.Context) (StorageStats, error) {
	infos, err := s.List(ctx)
	if err != nil {
		return StorageStats{}, err
	}
	st := StorageStats{Gets: s.gets.Load(), Hits: s.hits.Load(), Puts: s.puts.Load(), Cells: int64(len(infos))}
	for _, info := range infos {
		st.Bytes += info.Size
	}
	if ts, ok := s.backend.(TierStatter); ok {
		tier := ts.TierStats()
		st.Tier = &tier
	}
	return st, nil
}

// Degraded reports whether a tiered backend's breaker is not closed. It
// reads the mutex-guarded tier stats directly and takes no storage lock.
func (s *Storage) Degraded() bool {
	ts, ok := s.backend.(TierStatter)
	return ok && ts.TierStats().BreakerState != breakerClosed.String()
}
