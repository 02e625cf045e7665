// Service-layer benchmarks: the scenariod HTTP round-trip on a warm key,
// a tiered read-through, and a storage-module Put on a full store.
// BenchmarkScenarioStoreHit prices an in-process store read; the
// round-trip adds the daemon on top — JSON encode, loopback HTTP, queue dedup, storage
// module, outcome decode — which is what a sweep script pays per cell
// when it shares the cache through scenariod instead of opening the
// store directly.
package main

import (
	"context"
	"fmt"
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

// BenchmarkStoragePut prices one fresh Put through the storage module
// onto a disk store already holding 1000 small cells. A cap-less Put
// writes its cell and nothing else (the footprint is recounted by
// Stats, not by Put), so ns/op must not grow with the store.
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

	s := service.NewStorage(backend, scenario.GCConfig{})
	if err := s.Configure(); err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := s.Stop(); err != nil {
			b.Errorf("stopping storage: %v", err)
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(ctx, cell(prefill+i), out); err != nil {
			b.Fatal(err)
		}
	}
}

// discardBackend is a local tier that never hits and never retains, so
// every RemoteBackend fetch pays the full remote round trip.
type discardBackend struct{}

func (discardBackend) Name() string { return "discard" }
func (discardBackend) Get(context.Context, string) (*scenario.Outcome, bool, error) {
	return nil, false, nil
}
func (discardBackend) Put(context.Context, scenario.Spec, *scenario.Outcome) error { return nil }
func (discardBackend) List(context.Context) ([]scenario.CellInfo, error)           { return nil, nil }
func (discardBackend) Len(context.Context) (int, error)                            { return 0, nil }

// BenchmarkRemoteBackendHit prices a tiered read-through that misses
// the local tier: RemoteBackend delegates to a warm leader daemon over
// loopback HTTP and decodes the cached outcome. The local tier discards
// write-backs so the remote hop is paid on every iteration — this is
// the cold-follower latency a fleet worker sees joining a warm sweep.
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
		out, ok, err := r.Fetch(ctx, spec, key)
		if err != nil {
			b.Fatal(err)
		}
		if !ok || out == nil {
			b.Fatal("warm remote key missed")
		}
	}
}
