// Package service is the scenario layer as a long-running daemon: an
// HTTP API over a job queue and its worker pool over a pluggable
// storage backend, with the content-addressed scenario.Store as the
// cache tier. A repeated spec is a store hit (~tens of µs) instead of
// a simulation (~hundreds of µs to ms), which is exactly the shape that
// serves heavy repeated traffic; the singleflight job table makes a
// thundering herd on one spec run one simulation.
//
// Daemon wires three parts in dependency order and stops them in
// reverse:
//
//	storage  — owns the Backend: concurrent lookups, one Put at a time
//	queue    — N workers on one job channel, in-flight dedup (singleflight)
//	http     — the /v1/scenarios API surface
//
// The storage Backend interface (context-threaded Get/Put/List/Len,
// plus the optional Fetcher read-through hook and the encoded path,
// encodedBackend and encodedFetcher, over which outcomes travel as the
// JSON every reply carries) is the pluggability point: the on-disk
// scenario.Store is the canonical backend, an
// in-memory backend ships for tests and ephemeral daemons, and
// RemoteBackend tiers either onto another scenariod — local tier first,
// read-through to the shared tier on a miss, write-through on puts,
// and a circuit breaker that degrades the daemon to local-only when
// the remote is down, slow, or erroring (remote trouble can only cost
// cache hits, never a submit).
//
// Unlike every other internal package, service is *not* a deterministic
// simulation layer: it legitimately reads the wall clock and talks to
// the network. It is therefore exempt from the detsource analyzer's
// deterministic-package list (internal/lint pins that list; a test
// asserts the scoping), while the other analyzers still apply.
package service

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Config assembles a scenario daemon.
type Config struct {
	// Addr is the HTTP listen address; "127.0.0.1:0" picks a free port.
	Addr string
	// StoreDir roots the on-disk cache tier; empty selects the in-memory
	// backend (ephemeral: the cache dies with the process).
	StoreDir string
	// Backend overrides the StoreDir/mem selection with a caller-built
	// backend.
	Backend Backend
	// Remote is the base URL of another scenariod to front as a shared
	// cache tier ("http://host:port"). When set, the local backend is
	// wrapped in a RemoteBackend: reads fall through to the remote on a
	// local miss, misses delegate the simulation to the remote's queue,
	// and puts write through in the background. A down or slow remote
	// degrades this daemon to local-only — it never fails a submit.
	Remote string
	// RemoteTimeout bounds each remote call; zero selects the
	// RemoteBackend default (5s).
	RemoteTimeout time.Duration
	// Shards is the queue worker count; 0 picks min(NumCPU, 4).
	Shards int
	// EngineWorkers caps each simulation's internal parallelism
	// (scenario.Spec.Workers; 0 = all cores).
	EngineWorkers int
}

// Daemon is the composed scenario service: storage, queue and API.
type Daemon struct {
	storage *Storage
	queue   *Queue
	http    *HTTPServer
	backend Backend
	// serving is set by a successful Start: only then does Stop have
	// parts to stop (a failed Start stops its own).
	serving bool
	// stopOnce makes every Stop after the first a no-op, so the backend
	// is closed exactly once.
	stopOnce sync.Once
}

// New builds a daemon and validates its configuration (no sockets or
// goroutines yet — Start owns those).
func New(cfg Config) (*Daemon, error) {
	backend := cfg.Backend
	if backend == nil {
		if cfg.StoreDir != "" {
			sb, err := OpenStoreBackend(cfg.StoreDir)
			if err != nil {
				return nil, err
			}
			backend = sb
		} else {
			backend = NewMemBackend()
		}
	}
	if cfg.Remote != "" {
		backend = NewRemoteBackend(backend, NewClient(cfg.Remote), RemoteTimeout(cfg.RemoteTimeout))
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = runtime.NumCPU()
		if shards > 4 {
			shards = 4
		}
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	storage, err := NewStorage(backend)
	if err != nil {
		return nil, err
	}
	queue, err := NewQueue(storage, shards, cfg.EngineWorkers)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		storage: storage,
		queue:   queue,
		http:    NewHTTPServer(addr, queue, storage),
		backend: backend,
	}, nil
}

// Start launches the queue workers, then binds the API. When the bind
// fails, the queue and storage are stopped again, so every later call
// answers ErrStopped; the backend stays open until Stop.
func (d *Daemon) Start() error {
	d.queue.Start()
	if err := d.http.Start(); err != nil {
		d.queue.Stop()
		d.storage.Stop()
		return err
	}
	d.serving = true
	return nil
}

// Stop tears the daemon down in reverse: the API stops accepting, the
// queue drains, storage waits out the queue's final Put, then a
// closable backend (RemoteBackend's background writer) is closed, after
// nothing can reach it. Only the first call does anything.
func (d *Daemon) Stop() error {
	var err error
	d.stopOnce.Do(func() {
		if d.serving {
			err = d.http.Stop()
			d.queue.Stop()
			d.storage.Stop()
		}
		if c, ok := d.backend.(io.Closer); ok {
			if cerr := c.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// BaseURL returns the daemon's API root (valid after Start).
func (d *Daemon) BaseURL() string { return "http://" + d.http.ListenAddr() }

// BackendName identifies the storage backend for logs.
func (d *Daemon) BackendName() string { return d.backend.Name() }

// Shards reports the queue worker count.
func (d *Daemon) Shards() int { return d.queue.workers }

// String describes the daemon for startup logs.
func (d *Daemon) String() string {
	return fmt.Sprintf("scenariod backend=%s shards=%d", d.BackendName(), d.Shards())
}
