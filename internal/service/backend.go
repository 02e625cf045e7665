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
// takes the caller's context, which the storage module passes on as it
// is: it ends when an HTTP client goes away and never for a queue
// worker, so a backend whose calls can block must bound them itself, as
// RemoteBackend bounds each remote call by RemoteTimeout. The disk and
// memory backends ignore it.
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
// The storage module moves outcomes encoded (see encodedBackend), which
// every built-in backend offers; Get and Put are the decoded form, and
// a decoded Get on a built-in backend returns an outcome the caller
// owns.
//
// A lookup answers a key only with the outcome of the spec that hashes
// to it. The built-in backends admit a cell only if its spec passes
// Validate and hashes to the key under this code: StoreBackend checks
// every cell it reads from disk (scenario.Store's one read), since a
// store may hold cells that older code wrote or that were copied under
// another key, and MemBackend refuses a spec Validate refuses when it is
// put and keys each cell by its spec. A stale or misfiled cell is a miss
// on every lookup, so its spec is simulated again and that run's Put
// repairs the key.
type Backend interface {
	// Name identifies the backend in listings and stats.
	Name() string
	// Get returns the outcome stored under a content key (ok=false on a
	// miss).
	Get(ctx context.Context, key string) (*scenario.Outcome, bool, error)
	// Put persists a spec's outcome under its content key.
	Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error
	// List inspects every stored cell, sorted by key.
	List(ctx context.Context) ([]scenario.CellInfo, error)
	// Len reports the number of stored cells.
	Len(ctx context.Context) (int, error)
}

// encodedBackend is the encoded path a Backend may offer beside its
// decoded Get and Put: each outcome travels as its compact JSON, the
// bytes json.Marshal gives for it, which is what every reply carries.
// The storage module takes this path when a backend offers it (a type
// outside the package offers it by having these methods), and otherwise
// encodes a decoded Get once and decodes an encoded Put. The bytes
// GetEncoded returns are shared and must not be modified.
type encodedBackend interface {
	// GetEncoded is Get returning the outcome encoded.
	GetEncoded(ctx context.Context, key string) ([]byte, bool, error)
	// PutEncoded is Put taking the outcome encoded; enc must be the
	// json.Marshal output of an outcome, and the backend may keep it, so
	// the caller must not modify it afterwards.
	PutEncoded(ctx context.Context, spec scenario.Spec, enc []byte) error
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

// encodedFetcher is Fetcher returning the outcome encoded, as
// encodedBackend's GetEncoded does; a backend offers it beside Fetch.
type encodedFetcher interface {
	FetchEncoded(ctx context.Context, spec scenario.Spec, key string) ([]byte, bool, error)
}

// getEncoded reads a key from b encoded: through b's encoded path when
// it offers one, otherwise by encoding its decoded Get once.
func getEncoded(ctx context.Context, b Backend, key string) ([]byte, bool, error) {
	if eb, ok := b.(encodedBackend); ok {
		return eb.GetEncoded(ctx, key)
	}
	return encoded(b.Get(ctx, key))
}

// getLocal is the submit fast path's lookup (see Storage.getCanonical):
// it reads b's local tiers alone, so a canonical submit never calls a
// remote one. A built-in backend reads itself, RemoteBackend reads its
// local tier, counting a hit as a local hit, and any other backend,
// whose cells nothing here vouches for, misses.
func getLocal(ctx context.Context, b Backend, key string) ([]byte, bool, error) {
	switch b := b.(type) {
	case *StoreBackend, *MemBackend:
		return getEncoded(ctx, b, key)
	case *RemoteBackend:
		enc, ok, err := getLocal(ctx, b.local, key)
		b.answeredLocally(ok, err)
		return enc, ok, err
	}
	return nil, false, nil
}

// putEncoded stores an encoded outcome in b: through b's encoded path
// when it offers one, otherwise by decoding it for b's Put.
func putEncoded(ctx context.Context, b Backend, spec scenario.Spec, enc []byte) error {
	if eb, ok := b.(encodedBackend); ok {
		return eb.PutEncoded(ctx, spec, enc)
	}
	out, err := decodeOutcome(enc)
	if err != nil {
		return err
	}
	return b.Put(ctx, spec, out)
}

// putDecoded is an encoded backend's Put: it encodes the outcome once
// for PutEncoded. A nil outcome encodes as null, which PutEncoded
// rejects.
func putDecoded(ctx context.Context, b encodedBackend, spec scenario.Spec, out *scenario.Outcome) error {
	enc, err := encodeOutcome(out)
	if err != nil {
		return err
	}
	return b.PutEncoded(ctx, spec, enc)
}

// encoded is a decoded lookup's encoded form, encoding the outcome once.
func encoded(out *scenario.Outcome, ok bool, err error) ([]byte, bool, error) {
	if err != nil || !ok {
		return nil, false, err
	}
	enc, err := encodeOutcome(out)
	return enc, err == nil, err
}

// getDecoded is an encoded lookup's decoded form: the outcome it
// returns is a fresh value the caller owns.
func getDecoded(enc []byte, ok bool, err error) (*scenario.Outcome, bool, error) {
	if err != nil || !ok {
		return nil, false, err
	}
	out, err := decodeOutcome(enc)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

// encodeOutcome encodes an outcome as every reply carries it.
func encodeOutcome(out *scenario.Outcome) ([]byte, error) {
	enc, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("service: encoding outcome: %w", err)
	}
	return enc, nil
}

// decodeOutcome decodes an encoded outcome into a fresh value.
func decodeOutcome(enc []byte) (*scenario.Outcome, error) {
	out := new(scenario.Outcome)
	if err := json.Unmarshal(enc, out); err != nil {
		return nil, fmt.Errorf("service: decoding outcome: %w", err)
	}
	return out, nil
}

// StoreBackend serves an on-disk content-addressed scenario.Store. It
// keeps the most recently read outcomes encoded in memory, up to
// CacheBytes of them, so a repeated hit costs no syscall and no decode.
// The cache sees only the changes made through this backend: a Put
// drops the key it replaces, but a cell another process rewrites or
// deletes on disk is served from memory until the cache evicts it. A
// content-addressed outcome stays the answer for its key, so that is
// stale only when the engine code behind the key has changed.
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

// GetEncoded answers a cached key from memory, or reads the cell and
// caches its encoded outcome.
func (b *StoreBackend) GetEncoded(_ context.Context, key string) ([]byte, bool, error) {
	enc, gen, ok := b.cache.get(key)
	if ok {
		return enc, true, nil
	}
	enc, ok, err := b.st.GetEncoded(key)
	if ok {
		b.cache.add(key, enc, gen)
	}
	return enc, ok, err
}

// Get decodes GetEncoded's outcome.
func (b *StoreBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	return getDecoded(b.GetEncoded(ctx, key))
}

// PutEncoded persists a cell (atomic temp-file + rename, see
// scenario.Store) and then drops the key from the cache, so the next
// Get reads the new cell. The drop must follow the rename (see
// outcomeCache).
func (b *StoreBackend) PutEncoded(_ context.Context, spec scenario.Spec, enc []byte) error {
	key, err := scenario.Key(spec)
	if err != nil {
		return err
	}
	defer b.cache.drop(key)
	return b.st.PutEncoded(spec, enc)
}

// Put encodes the outcome for PutEncoded.
func (b *StoreBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return putDecoded(ctx, b, spec, out)
}

// List inspects the store.
func (b *StoreBackend) List(context.Context) ([]scenario.CellInfo, error) { return b.st.List() }

// Len counts the cells.
func (b *StoreBackend) Len(context.Context) (int, error) { return b.st.Len() }

// memCell is one in-memory cell: the encoded outcome plus the facts
// List reports, its size counted as the on-disk backend's JSON of the
// spec and outcome would be.
type memCell struct {
	kind, name string
	units      int
	size       int64
	enc        []byte
}

// memCellFraming is the JSON around a memCell's spec and outcome that
// its size counts: {"spec":…,"outcome":…}.
const memCellFraming = len(`{"spec":,"outcome":}`)

// MemBackend is the in-memory backend: same contract as StoreBackend,
// nothing on disk. It holds each outcome encoded.
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

// GetEncoded returns the encoded outcome stored under key.
func (b *MemBackend) GetEncoded(_ context.Context, key string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		return nil, false, nil
	}
	return c.enc, true, nil
}

// Get decodes GetEncoded's outcome.
func (b *MemBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	return getDecoded(b.GetEncoded(ctx, key))
}

// PutEncoded stores the encoded outcome under the spec's content key,
// replacing any earlier cell. A spec Validate refuses and a missing or
// null outcome are rejected.
func (b *MemBackend) PutEncoded(_ context.Context, spec scenario.Spec, enc []byte) error {
	canon, err := scenario.CanonicalJSON(spec)
	if err != nil {
		return err
	}
	key := scenario.KeyOf(canon)
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("service: mem cell %s: %w", key, err)
	}
	if len(enc) == 0 || string(enc) == "null" {
		return fmt.Errorf("service: mem cell %s: nil outcome", key)
	}
	var probe struct {
		Units []struct{} `json:"units"`
	}
	if err := json.Unmarshal(enc, &probe); err != nil {
		return fmt.Errorf("service: mem cell %s: %w", key, err)
	}
	c := &memCell{
		kind: spec.Kind, name: spec.Name, units: len(probe.Units),
		size: int64(len(canon) + len(enc) + memCellFraming), enc: enc,
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cells[key] = c
	return nil
}

// Put encodes the outcome for PutEncoded.
func (b *MemBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return putDecoded(ctx, b, spec, out)
}

// List inspects the cells, sorted by key.
func (b *MemBackend) List(context.Context) ([]scenario.CellInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	infos := make([]scenario.CellInfo, 0, len(b.cells))
	for key, c := range b.cells {
		infos = append(infos, scenario.CellInfo{
			Key:   key,
			Kind:  c.kind,
			Name:  c.name,
			Units: c.units,
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
