package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// defaultReqTimeout bounds one backend operation inside the storage
// serve loop. Local backends finish in microseconds; the bound exists
// for tiered backends whose Get/Fetch may cross the network (those also
// apply their own, tighter remote deadline).
const defaultReqTimeout = 30 * time.Second

// Storage is the storage module: it owns the Backend and serializes
// every access through a request/reply channel served by one goroutine
// (the coop/storage pattern). Serialization is what makes the cache-cap
// contract simple — a Put and the GC pass it triggers are one atomic
// step from every other module's point of view, and backends need no
// locking of their own.
//
// Every public method takes the caller's context; the serve loop derives
// a per-request deadline (ReqTimeout) under it before touching the
// backend, so a stuck or slow backend call is cancelled instead of
// wedging the goroutine for everyone behind it. The footprint snapshot
// is lazy: a cap-less Put marks it stale, and Stats relists once if so.
type Storage struct {
	backend Backend
	// gc caps the cache tier; the zero value disables eviction.
	gc scenario.GCConfig
	// ReqTimeout bounds each backend call made by the serve loop; zero
	// selects defaultReqTimeout. Set before Configure.
	ReqTimeout time.Duration

	reqs chan storageReq
	done chan struct{}

	// stats are owned by the serving goroutine; fresh marks Cells/Bytes current.
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
	// a List on Stats when a Put has landed since, or a capped Put's GC.
	Cells int64 `json:"cells"`
	Bytes int64 `json:"bytes"`
	// Tier is present when the backend is tiered (RemoteBackend): the
	// local/remote hit split, remote failure accounting, and the circuit
	// breaker's state. Nil for single-tier backends.
	Tier *TierStats `json:"tier,omitempty"`
}

// storageOp selects the request kind.
type storageOp int

const (
	opGet storageOp = iota
	opFetch
	opPut
	opList
	opLen
	opStats
)

// storageReq is one request into the serving goroutine; the reply
// channel is buffered so the server never blocks on a dead client.
type storageReq struct {
	op    storageOp
	ctx   context.Context
	key   string
	spec  scenario.Spec
	out   *scenario.Outcome
	reply chan storageResp
}

type storageResp struct {
	out   *scenario.Outcome
	ok    bool
	infos []scenario.CellInfo
	n     int
	stats StorageStats
	err   error
}

// NewStorage builds the storage module over a backend. gc caps the
// cache tier (zero = unbounded); a capped configuration needs a backend
// implementing GCBackend.
func NewStorage(backend Backend, gc scenario.GCConfig) *Storage {
	return &Storage{backend: backend, gc: gc}
}

// Name implements Module.
func (s *Storage) Name() string { return "storage" }

// Configure validates the backend/cap combination and allocates the
// request plumbing.
func (s *Storage) Configure() error {
	if s.backend == nil {
		return fmt.Errorf("storage: nil backend")
	}
	if s.gc.Enabled() {
		if s.gc.MaxBytes < 0 || s.gc.MaxCells < 0 {
			return fmt.Errorf("storage: negative GC cap")
		}
		if _, ok := s.backend.(GCBackend); !ok {
			return fmt.Errorf("storage: backend %s does not support eviction (cache caps need a GCBackend)", s.backend.Name())
		}
	}
	if s.ReqTimeout == 0 {
		s.ReqTimeout = defaultReqTimeout
	}
	s.reqs = make(chan storageReq)
	s.done = make(chan struct{})
	return nil
}

// Start launches the serving goroutine.
func (s *Storage) Start() error {
	go s.serve()
	return nil
}

// Stop closes the intake and waits for the server to drain. Requests
// after Stop fail with ErrStopped.
func (s *Storage) Stop() error {
	close(s.reqs)
	<-s.done
	return nil
}

// ErrStopped reports a request against a stopped module.
var ErrStopped = fmt.Errorf("service: module stopped")

// serve is the single goroutine owning the backend.
func (s *Storage) serve() {
	defer close(s.done)
	for req := range s.reqs {
		// Per-request deadline: the caller's context (already cancelled
		// if the client went away) capped by the module bound.
		base := req.ctx
		if base == nil {
			base = context.Background()
		}
		ctx, cancel := context.WithTimeout(base, s.ReqTimeout)
		var resp storageResp
		switch req.op {
		case opGet, opFetch:
			out, ok, err := s.fetch(ctx, req)
			s.stats.Gets++
			if ok {
				s.stats.Hits++
			}
			resp = storageResp{out: out, ok: ok, err: err}
		case opPut:
			err := s.backend.Put(ctx, req.spec, req.out)
			if err == nil {
				s.stats.Puts++
				err = s.maybeGC(ctx)
			}
			resp = storageResp{err: err}
		case opList:
			infos, err := s.backend.List(ctx)
			resp = storageResp{infos: infos, err: err}
		case opLen:
			n, err := s.backend.Len(ctx)
			resp = storageResp{n: n, err: err}
		case opStats:
			if !s.fresh {
				s.refreshFootprint(ctx)
			}
			resp = storageResp{stats: s.statsSnapshot()}
		}
		cancel()
		req.reply <- resp
	}
}

// fetch resolves a key. With the spec in hand (opFetch) tiered backends
// read through and may delegate the simulation to their remote; every
// other lookup is a plain Get.
func (s *Storage) fetch(ctx context.Context, req storageReq) (*scenario.Outcome, bool, error) {
	if f, ok := s.backend.(Fetcher); ok && req.op == opFetch {
		return f.Fetch(ctx, req.spec, req.key)
	}
	return s.backend.Get(ctx, req.key)
}

// Degraded reports whether a tiered backend's breaker is not closed. It
// reads the mutex-guarded tier stats directly, bypassing the serve loop.
func (s *Storage) Degraded() bool {
	ts, ok := s.backend.(TierStatter)
	return ok && ts.TierStats().BreakerState != breakerClosed.String()
}

// statsSnapshot copies the counters and attaches the tier split when the
// backend keeps one.
func (s *Storage) statsSnapshot() StorageStats {
	st := s.stats
	if ts, ok := s.backend.(TierStatter); ok {
		tier := ts.TierStats()
		st.Tier = &tier
	}
	return st
}

// maybeGC follows a landed Put: it marks the footprint stale, or runs
// the capped eviction pass whose exact result keeps it fresh.
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

// refreshFootprint recomputes the Cells/Bytes snapshot from a listing.
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

// call sends one request, translating a stopped module into ErrStopped
// instead of a panic on the closed channel.
func (s *Storage) call(req storageReq) (resp storageResp) {
	defer func() {
		if recover() != nil {
			resp = storageResp{err: ErrStopped}
		}
	}()
	req.reply = make(chan storageResp, 1)
	s.reqs <- req
	return <-req.reply
}

// Get looks a content key up in the backend.
func (s *Storage) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	resp := s.call(storageReq{op: opGet, ctx: ctx, key: key})
	return resp.out, resp.ok, resp.err
}

// Fetch looks a key up with the spec available, letting a tiered
// backend resolve the miss remotely (the queue's workers use this so a
// miss costs the fleet one simulation, wherever it runs).
func (s *Storage) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	resp := s.call(storageReq{op: opFetch, ctx: ctx, spec: spec, key: key})
	return resp.out, resp.ok, resp.err
}

// Put persists an outcome and, when caps are configured, trims the
// cache tier in the same serialized step.
func (s *Storage) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	return s.call(storageReq{op: opPut, ctx: ctx, spec: spec, out: out}).err
}

// List inspects the backend's cells.
func (s *Storage) List(ctx context.Context) ([]scenario.CellInfo, error) {
	resp := s.call(storageReq{op: opList, ctx: ctx})
	return resp.infos, resp.err
}

// Len counts the backend's cells.
func (s *Storage) Len(ctx context.Context) (int, error) {
	resp := s.call(storageReq{op: opLen, ctx: ctx})
	return resp.n, resp.err
}

// Stats snapshots the module's accounting.
func (s *Storage) Stats(ctx context.Context) (StorageStats, error) {
	resp := s.call(storageReq{op: opStats, ctx: ctx})
	return resp.stats, resp.err
}
