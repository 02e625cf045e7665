// Service-layer benchmarks: the scenariod HTTP round-trip on a warm key,
// a tiered read-through, and storage-module Puts and concurrent cold
// Gets on a full store.
// BenchmarkScenarioStoreHit prices an in-process store read and decode;
// the round-trip adds the daemon on top — request encode, loopback HTTP,
// queue dedup, the storage module (whose backend serves a repeated key
// from its cache of encoded outcomes), the reply with those bytes spliced
// in, and the client decode — which is what a sweep script pays per cell
// when it shares the cache through scenariod instead of opening the
// store directly.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
	"repro/internal/service"
)

// BenchmarkServiceStoreHit submits the same spec to a running daemon
// repeatedly; after the first (simulated) submit every round-trip must
// be answered from the store without a simulation.
func BenchmarkServiceStoreHit(b *testing.B) {
	d, err := service.New(service.Config{StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := d.Stop(); err != nil {
			b.Errorf("stopping daemon: %v", err)
		}
	}()

	ctx := context.Background()
	c := service.NewClient(d.BaseURL())
	spec := scenarioStoreSpec()
	warm, err := c.Submit(ctx, spec, true)
	if err != nil {
		b.Fatal(err)
	}
	if warm.State != service.StateDone {
		b.Fatalf("warm-up state = %s", warm.State)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.Submit(ctx, spec, true)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Cached {
			b.Fatal("warm key missed the store")
		}
	}
}

// BenchmarkStoragePut prices one fresh job's store write: the outcome's
// encode, which the queue makes once per job, and the Put through the
// storage module onto a disk store already holding 1000 small cells. A
// Put writes its cell and nothing else (Stats counts the footprint, not
// Put), so ns/op must not grow with the store.
func BenchmarkStoragePut(b *testing.B) {
	const prefill = 1000
	backend, err := service.OpenStoreBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := scenarioStoreSpec()
	out, err := scenario.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	cell := func(i int) scenario.Spec {
		s := spec
		s.Name = fmt.Sprintf("bench-put-%d", i)
		return s
	}
	ctx := context.Background()
	for i := 0; i < prefill; i++ {
		if err := backend.Put(ctx, cell(i), out); err != nil {
			b.Fatal(err)
		}
	}

	s, err := service.NewStorage(backend)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := json.Marshal(out)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(ctx, cell(prefill+i), enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageGetParallel prices Storage.Get calls that miss the
// backend's outcome cache, the encoded read the queue makes of a cell
// not read lately, from GOMAXPROCS goroutines at once over a disk store.
// Lookups take no storage lock, so ns/op should fall as cores are added
// instead of queueing behind one another. The goroutines take their keys
// in turn from one ring holding twice service.CacheBytes of outcomes
// (about 9800 cells of 430 B), so a key comes back only after the cache
// has evicted it, however many goroutines run: every Get reads its
// cell, decodes the outcome to check it and compacts it. Go calls the
// function once per b.N it tries, and each call writes the ring afresh:
// 1-3 s of disk writes on a 2-vCPU guest.
func BenchmarkStorageGetParallel(b *testing.B) {
	backend, err := service.OpenStoreBackend(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := scenarioStoreSpec()
	out, err := scenario.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]string, 2*service.CacheBytes/len(enc)+1)
	for i := range keys {
		s := spec
		s.Name = fmt.Sprintf("bench-get-%d", i)
		if err := backend.PutEncoded(ctx, s, enc); err != nil {
			b.Fatal(err)
		}
		if keys[i], err = scenario.Key(s); err != nil {
			b.Fatal(err)
		}
	}

	s, err := service.NewStorage(backend)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()

	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := keys[(next.Add(1)-1)%int64(len(keys))]
			if _, ok, err := s.Get(ctx, key); err != nil || !ok {
				b.Errorf("cold get: ok=%v err=%v", ok, err)
				return
			}
		}
	})
}

// discardBackend is a local tier that never hits and never retains, so
// every RemoteBackend fetch pays the full remote round trip. It offers
// the encoded methods too, as the daemon's local tiers do, so a fetch
// takes the daemon's encoded path.
type discardBackend struct{}

func (discardBackend) Name() string { return "discard" }
func (discardBackend) Get(context.Context, string) (*scenario.Outcome, bool, error) {
	return nil, false, nil
}
func (discardBackend) GetEncoded(context.Context, string) ([]byte, bool, error) {
	return nil, false, nil
}
func (discardBackend) Put(context.Context, scenario.Spec, *scenario.Outcome) error { return nil }
func (discardBackend) PutEncoded(context.Context, scenario.Spec, []byte) error     { return nil }
func (discardBackend) List(context.Context) ([]scenario.CellInfo, error)           { return nil, nil }
func (discardBackend) Len(context.Context) (int, error)                            { return 0, nil }

// BenchmarkRemoteBackendHit prices a tiered read-through that misses
// the local tier, as a queue worker's fetch makes it: RemoteBackend
// delegates to a warm leader daemon over loopback HTTP, decodes the
// cached outcome and encodes it once for the write-back and the reply.
// The local tier discards write-backs so the remote hop is paid on
// every iteration — this is the cold-follower latency a fleet worker
// sees joining a warm sweep.
func BenchmarkRemoteBackendHit(b *testing.B) {
	d, err := service.New(service.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := d.Stop(); err != nil {
			b.Errorf("stopping leader: %v", err)
		}
	}()

	ctx := context.Background()
	c := service.NewClient(d.BaseURL())
	spec := scenarioStoreSpec()
	if _, err := c.Submit(ctx, spec, true); err != nil {
		b.Fatal(err)
	}

	r := service.NewRemoteBackend(discardBackend{}, c)
	defer func() {
		if err := r.Close(); err != nil {
			b.Errorf("closing remote backend: %v", err)
		}
	}()
	key, err := scenario.Key(spec)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, ok, err := r.FetchEncoded(ctx, spec, key)
		if err != nil {
			b.Fatal(err)
		}
		if !ok || len(enc) == 0 {
			b.Fatal("warm remote key missed")
		}
	}
}
