package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// Backend abstracts the result store the storage module serves. The
// on-disk content-addressed scenario.Store is the canonical backend; an
// in-memory backend ships for tests and ephemeral daemons; RemoteBackend
// fronts either with a shared tier on another scenariod. Every method
// takes a context: the storage module derives a per-request deadline
// before each call, so a backend that does I/O (disk, network) can be
// cancelled instead of hanging its caller.
//
// Implementations must be safe for concurrent use: the storage module
// runs lookups and Lists concurrently with each other and with one Put
// at a time. The built-in backends are: StoreBackend writes each cell
// to a temp file and renames it into place, so a concurrent read sees a
// whole cell or none; its outcome cache is locked, and a read that
// races a Put cannot cache the cell it replaced; MemBackend locks its
// map; RemoteBackend locks its counters and its breaker, and its local
// tier is one of the other two.
//
// An outcome a backend returns is shared, read-only: StoreBackend's
// cache and MemBackend hand the same value to every caller, so no
// caller may modify it.
type Backend interface {
	// Name identifies the backend in listings and stats.
	Name() string
	// Get returns the outcome stored under a content key (ok=false on a
	// miss). The outcome is shared and must not be modified.
	Get(ctx context.Context, key string) (*scenario.Outcome, bool, error)
	// Put persists a spec's outcome under its content key.
	Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error
	// List inspects every stored cell, sorted by key.
	List(ctx context.Context) ([]scenario.CellInfo, error)
	// Len reports the number of stored cells.
	Len(ctx context.Context) (int, error)
}

// Fetcher is the optional read-through hook: a backend that can resolve
// a miss by handing the spec to another tier (RemoteBackend delegates
// the simulation to its remote daemon) implements it. The queue's
// workers fetch instead of getting, so a miss on a tiered daemon costs
// the fleet one simulation wherever the key lands; plain backends fall
// back to Get.
type Fetcher interface {
	Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error)
}

// StoreBackend serves an on-disk content-addressed scenario.Store. It
// keeps the most recently read outcomes decoded in memory (see
// cacheBytes), so a repeated hit costs no syscall and no decode. The
// cache sees only the changes made through this backend: a Put drops
// the key it replaces.
type StoreBackend struct {
	st    *scenario.Store
	cache outcomeCache
}

// OpenStoreBackend opens (creating if needed) a store-backed backend
// rooted at dir.
func OpenStoreBackend(dir string) (*StoreBackend, error) {
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	return &StoreBackend{st: st}, nil
}

// Name identifies the backend as the store directory.
func (b *StoreBackend) Name() string { return "store:" + b.st.Dir() }

// Get answers a cached key from memory, or reads the cell and caches
// its outcome.
func (b *StoreBackend) Get(_ context.Context, key string) (*scenario.Outcome, bool, error) {
	out, gen, ok := b.cache.get(key)
	if ok {
		return out, true, nil
	}
	out, size, ok, err := b.st.GetKeySized(key)
	if ok {
		b.cache.add(key, out, size, gen)
	}
	return out, ok, err
}

// Put persists a cell (atomic temp-file + rename, see scenario.Store)
// and then drops the key from the cache, so the next Get reads the new
// cell. The drop must follow the rename (see outcomeCache).
func (b *StoreBackend) Put(_ context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	key, err := scenario.Key(spec)
	if err != nil {
		return err
	}
	defer b.cache.drop(key)
	return b.st.Put(spec, out)
}

// List inspects the store.
func (b *StoreBackend) List(context.Context) ([]scenario.CellInfo, error) { return b.st.List() }

// Len counts the cells.
func (b *StoreBackend) Len(context.Context) (int, error) { return b.st.Len() }

// memCell is one in-memory cell: the encoded entry (so List can report a
// size comparable to the on-disk backend) plus the decoded outcome.
type memCell struct {
	spec scenario.Spec
	out  *scenario.Outcome
	size int64
}

// MemBackend is the in-memory backend: same contract as StoreBackend,
// nothing on disk.
type MemBackend struct {
	mu    sync.Mutex
	cells map[string]*memCell
}

// NewMemBackend builds an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{cells: make(map[string]*memCell)}
}

// Name identifies the backend.
func (b *MemBackend) Name() string { return "mem" }

// Get returns the outcome stored under key.
func (b *MemBackend) Get(_ context.Context, key string) (*scenario.Outcome, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		return nil, false, nil
	}
	return c.out, true, nil
}

// Put stores the outcome under the spec's content key, replacing any
// earlier cell. A nil outcome is rejected.
func (b *MemBackend) Put(_ context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	key, err := scenario.Key(spec)
	if err != nil {
		return err
	}
	if out == nil {
		return fmt.Errorf("service: mem cell %s: nil outcome", key)
	}
	enc, err := json.Marshal(struct {
		Spec    scenario.Spec     `json:"spec"`
		Outcome *scenario.Outcome `json:"outcome"`
	}{spec, out})
	if err != nil {
		return fmt.Errorf("service: encoding mem cell %s: %w", key, err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cells[key] = &memCell{spec: spec, out: out, size: int64(len(enc))}
	return nil
}

// List inspects the cells, sorted by key.
func (b *MemBackend) List(context.Context) ([]scenario.CellInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	infos := make([]scenario.CellInfo, 0, len(b.cells))
	for key, c := range b.cells {
		infos = append(infos, scenario.CellInfo{
			Key:   key,
			Kind:  c.spec.Kind,
			Name:  c.spec.Name,
			Units: len(c.out.Units),
			Size:  c.size,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}

// Len counts the cells.
func (b *MemBackend) Len(context.Context) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.cells), nil
}
