package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// ctx is the background context every direct backend/module call in
// these tests runs under.
var ctx = context.Background()

// testSpec is the cheap single-job fixture; ambient varies the content
// key.
func testSpec(ambient float64) scenario.Spec {
	cfg := sim.Default()
	cfg.Ambient = units.Celsius(ambient)
	return scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     "service-test",
		Base:     &cfg,
		Duration: 120,
		Jobs: []scenario.JobSpec{{
			Workload: scenario.FactoryRef{Name: "constant", Params: scenario.Params{"u": 0.6}},
			Policy:   scenario.FactoryRef{Name: "hold", Params: scenario.Params{"fan": 3000}},
		}},
	}
}

// startDaemon builds and starts a daemon, failing the test on error and
// stopping it on cleanup.
func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Stop(); err != nil {
			t.Errorf("stopping daemon: %v", err)
		}
	})
	return d
}

// fakeModule records lifecycle calls into a shared log.
type fakeModule struct {
	name                string
	log                 *[]string
	failConf, failStart bool
}

func (m *fakeModule) Name() string { return m.name }
func (m *fakeModule) Configure() error {
	*m.log = append(*m.log, "conf:"+m.name)
	if m.failConf {
		return fmt.Errorf("boom")
	}
	return nil
}
func (m *fakeModule) Start() error {
	*m.log = append(*m.log, "start:"+m.name)
	if m.failStart {
		return fmt.Errorf("boom")
	}
	return nil
}
func (m *fakeModule) Stop() error {
	*m.log = append(*m.log, "stop:"+m.name)
	return nil
}

// TestCoordinatorLifecycle: Configure/Start walk in order, Stop in
// reverse, and a failed Start rolls back the already-started prefix.
func TestCoordinatorLifecycle(t *testing.T) {
	var log []string
	a := &fakeModule{name: "a", log: &log}
	b := &fakeModule{name: "b", log: &log}
	c := NewCoordinator(a, b)
	if err := c.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	want := "[conf:a conf:b start:a start:b stop:b stop:a]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("lifecycle order %v, want %v", got, want)
	}

	// Start failure in the middle: the started prefix stops in reverse,
	// the failing module and everything after it are never stopped.
	log = nil
	bad := &fakeModule{name: "bad", log: &log, failStart: true}
	tail := &fakeModule{name: "tail", log: &log}
	c = NewCoordinator(a, bad, tail)
	if err := c.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start succeeded past a failing module")
	}
	want = "[conf:a conf:bad conf:tail start:a start:bad stop:a]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("rollback order %v, want %v", got, want)
	}

	// Configure failure stops the walk.
	log = nil
	c = NewCoordinator(&fakeModule{name: "x", log: &log, failConf: true}, a)
	if err := c.Configure(); err == nil {
		t.Fatal("Configure succeeded past a failing module")
	}
	if got := fmt.Sprint(log); got != "[conf:x]" {
		t.Errorf("configure walk continued past failure: %v", got)
	}
}

// TestMemBackendGC: the in-memory backend evicts oldest insertion
// first, key tiebreak, and a re-put keeps the original age.
func TestMemBackendGC(t *testing.T) {
	b := NewMemBackend()
	specs := make([]scenario.Spec, 4)
	keys := make([]string, 4)
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i] = testSpec(24 + float64(i))
		keys[i], _ = scenario.Key(specs[i])
		if err := b.Put(ctx, specs[i], out); err != nil {
			t.Fatal(err)
		}
	}
	// Re-put the oldest: it must stay the oldest.
	if err := b.Put(ctx, specs[0], out); err != nil {
		t.Fatal(err)
	}
	res, err := b.GC(ctx, scenario.GCConfig{MaxCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Evicted) != fmt.Sprint(keys[:2]) {
		t.Errorf("evicted %v, want %v (insertion order, re-put keeps age)", res.Evicted, keys[:2])
	}
	if n, _ := b.Len(ctx); n != 2 {
		t.Errorf("Len = %d after GC, want 2", n)
	}
	if _, err := b.GC(ctx, scenario.GCConfig{}); err == nil {
		t.Error("GC accepted an empty cap set")
	}
}

// TestStorageCaps: with caps configured the storage module trims after
// every Put and accounts the evictions.
func TestStorageCaps(t *testing.T) {
	s := startStorage(t, NewMemBackend(), scenario.GCConfig{MaxCells: 2})
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 3; i++ {
		spec := testSpec(24 + float64(i))
		key, _ := scenario.Key(spec)
		keys = append(keys, key)
		if err := s.Put(ctx, spec, out); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Len(ctx); err != nil || n != 2 {
		t.Fatalf("Len = %d (%v), want 2 under MaxCells=2", n, err)
	}
	if _, ok, err := s.Get(ctx, keys[0]); err != nil || ok {
		t.Errorf("oldest cell survived the cap: ok=%v err=%v", ok, err)
	}
	if st := storageStats(t, s); st.Puts != 3 || st.Evicted != 1 || st.Cells != 2 {
		t.Errorf("stats = %+v, want 3 puts / 1 evicted / 2 cells", st)
	}

	// A capped configuration without a GC-capable backend is a
	// configuration error, not a silent unbounded cache.
	bare := NewStorage(nopBackend{}, scenario.GCConfig{MaxCells: 1})
	if err := bare.Configure(); err == nil {
		t.Error("Configure accepted caps on a backend without GC")
	}
}

// listCounter is a MemBackend that counts its List calls.
type listCounter struct {
	*MemBackend
	lists atomic.Int64
}

func (b *listCounter) List(ctx context.Context) ([]scenario.CellInfo, error) {
	b.lists.Add(1)
	return b.MemBackend.List(ctx)
}

// footprint lists a backend directly, bypassing the counter.
func (b *listCounter) footprint(t *testing.T) (cells, bytes int64) {
	t.Helper()
	infos, err := b.MemBackend.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		bytes += info.Size
	}
	return int64(len(infos)), bytes
}

// startStorage configures and starts a storage module, stopping it on
// cleanup.
func startStorage(t *testing.T, b Backend, gc scenario.GCConfig) *Storage {
	t.Helper()
	s := NewStorage(b, gc)
	if err := s.Configure(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Stop(); err != nil {
			t.Error(err)
		}
	})
	return s
}

// storageStats reads a storage module's stats, failing the test on error.
func storageStats(t *testing.T, s *Storage) StorageStats {
	t.Helper()
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// fakeLeader is a remote tier over httptest: every submit finishes at
// once with out, every key read misses, every push is accepted.
func fakeLeader(t *testing.T, out *scenario.Outcome) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			var spec scenario.Spec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
				return
			}
			key, _ := scenario.Key(spec)
			writeJSON(w, http.StatusOK, JobStatus{Key: key, State: StateDone, Outcome: out})
		case http.MethodPut:
			writeJSON(w, http.StatusOK, JobStatus{State: StateDone})
		default:
			writeError(w, http.StatusNotFound, CodeNotFound, "no such key")
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestLazyFootprint: a cap-less Put never lists; Stats lists once, and
// only when a Put or a tiered write-back has landed since the last
// refresh (or none was taken); a capped Storage takes its footprint from
// GC without listing at all.
func TestLazyFootprint(t *testing.T) {
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	b := &listCounter{MemBackend: NewMemBackend()}
	s := startStorage(t, b, scenario.GCConfig{})
	for i := 0; i < 3; i++ {
		if st := storageStats(t, s); st.Cells != 0 || st.Bytes != 0 {
			t.Fatalf("empty store stats = %+v, want 0 cells / 0 bytes", st)
		}
	}
	if n := b.lists.Load(); n != 1 {
		t.Errorf("3 Stats on a never-written store listed %d times, want 1", n)
	}

	const puts = 5
	for i := 0; i < puts; i++ {
		if err := s.Put(ctx, testSpec(24+float64(i)), out); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.lists.Load() - 1; n != 0 {
		t.Errorf("%d cap-less Puts listed %d times, want 0", puts, n)
	}
	wantCells, wantBytes := b.footprint(t)
	if st := storageStats(t, s); st.Puts != puts || st.Cells != wantCells || st.Bytes != wantBytes || wantCells != puts {
		t.Errorf("stats after puts = %+v, want %d puts / %d cells / %d bytes", st, puts, wantCells, wantBytes)
	}
	if n := b.lists.Load(); n != 2 {
		t.Errorf("first Stats after puts: %d Lists in total, want 2", n)
	}
	if st := storageStats(t, s); st.Cells != wantCells || st.Bytes != wantBytes {
		t.Errorf("repeat stats = %+v, want %d cells / %d bytes", st, wantCells, wantBytes)
	}
	if n := b.lists.Load(); n != 2 {
		t.Errorf("Stats with no Put between listed again: %d Lists in total, want 2", n)
	}

	cb := &listCounter{MemBackend: NewMemBackend()}
	cs := startStorage(t, cb, scenario.GCConfig{MaxCells: 2})
	for i := 0; i < 3; i++ {
		if err := cs.Put(ctx, testSpec(24+float64(i)), out); err != nil {
			t.Fatal(err)
		}
	}
	wantCells, wantBytes = cb.footprint(t)
	if st := storageStats(t, cs); st.Cells != 2 || st.Cells != wantCells || st.Bytes != wantBytes {
		t.Errorf("capped stats = %+v, want %d cells / %d bytes", st, wantCells, wantBytes)
	}
	if n := cb.lists.Load(); n != 0 {
		t.Errorf("capped Storage listed %d times, want 0 (GC reports the footprint)", n)
	}

	// A follower's remote-hit Fetch writes the outcome back into its
	// local tier without a Put: the next Stats must count the new cell.
	rb := NewRemoteBackend(NewMemBackend(), NewClient(fakeLeader(t, out).URL))
	t.Cleanup(func() {
		if err := rb.Close(); err != nil {
			t.Error(err)
		}
	})
	rs := startStorage(t, rb, scenario.GCConfig{})
	before := storageStats(t, rs).Cells
	spec := testSpec(40)
	key, _ := scenario.Key(spec)
	if _, ok, err := rs.Fetch(ctx, spec, key); err != nil || !ok {
		t.Fatalf("remote-hit fetch: ok=%v err=%v", ok, err)
	}
	if st := storageStats(t, rs); st.Cells != before+1 || st.Tier == nil || st.Tier.RemoteHits != 1 {
		t.Errorf("stats after a write-back = %+v (tier %+v), want %d cells / 1 remote hit", st, st.Tier, before+1)
	}
}

// parkedFetcher is a MemBackend whose Fetch signals entered and then
// parks until release is closed, like a tiered fetch waiting on a
// remote simulation.
type parkedFetcher struct {
	*MemBackend
	entered, release chan struct{}
}

func (b *parkedFetcher) Fetch(ctx context.Context, _ scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	close(b.entered)
	<-b.release
	return b.MemBackend.Get(ctx, key)
}

// TestParkedFetchBlocksNoOne: while one Fetch is parked inside the
// backend, a Get, a Put and a Stats all complete. The fetch is released
// only after they return, so the test needs no timing assumptions; the
// timeout only turns a deadlock into a failure.
func TestParkedFetchBlocksNoOne(t *testing.T) {
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	b := &parkedFetcher{MemBackend: NewMemBackend(), entered: make(chan struct{}), release: make(chan struct{})}
	s := startStorage(t, b, scenario.GCConfig{})
	spec := testSpec(25)
	key, _ := scenario.Key(spec)

	fetched := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx, testSpec(26), "parked")
		fetched <- err
	}()
	<-b.entered

	others := make(chan error, 1)
	go func() {
		if err := s.Put(ctx, spec, out); err != nil {
			others <- err
			return
		}
		if _, ok, err := s.Get(ctx, key); err != nil || !ok {
			others <- fmt.Errorf("get during a parked fetch: ok=%v err=%v", ok, err)
			return
		}
		if st, err := s.Stats(ctx); err != nil || st.Puts != 1 || st.Cells != 1 {
			others <- fmt.Errorf("stats during a parked fetch: %+v err=%v", st, err)
			return
		}
		others <- nil
	}()
	select {
	case err := <-others:
		close(b.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		close(b.release)
		t.Fatal("Put/Get/Stats blocked behind a parked Fetch")
	}
	if err := <-fetched; err != nil {
		t.Fatal(err)
	}
}

// TestStorageConcurrentStress runs Put, Get, Fetch, List and Stats
// concurrently through Storage over every built-in backend, cap-less and
// capped, under -race. Afterwards Puts is exact and Cells/Bytes equal a
// fresh List; a Get or List racing an eviction is a miss, never an
// error.
func TestStorageConcurrentStress(t *testing.T) {
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	leader := fakeLeader(t, out)
	backends := []struct {
		name string
		make func(t *testing.T) Backend
	}{
		{"store", func(t *testing.T) Backend {
			b, err := OpenStoreBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"mem", func(*testing.T) Backend { return NewMemBackend() }},
		{"remote", func(t *testing.T) Backend {
			rb := NewRemoteBackend(NewMemBackend(), NewClient(leader.URL))
			t.Cleanup(func() {
				if err := rb.Close(); err != nil {
					t.Error(err)
				}
			})
			return rb
		}},
	}
	caps := []struct {
		name string
		gc   scenario.GCConfig
	}{{"capless", scenario.GCConfig{}}, {"maxcells", scenario.GCConfig{MaxCells: 3}}}

	const workers, rounds = 4, 8
	for _, bc := range backends {
		for _, cc := range caps {
			t.Run(bc.name+"/"+cc.name, func(t *testing.T) {
				b := bc.make(t)
				s := startStorage(t, b, cc.gc)
				errs := make(chan error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						errs <- stressWorker(s, out, w, rounds)
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Error(err)
					}
				}

				st := storageStats(t, s)
				infos, err := b.List(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var bytes int64
				for _, info := range infos {
					bytes += info.Size
				}
				if st.Puts != workers*rounds || st.Cells != int64(len(infos)) || st.Bytes != bytes {
					t.Errorf("stats = %+v, want %d puts / %d cells / %d bytes", st, workers*rounds, len(infos), bytes)
				}
				if cc.gc.Enabled() && bc.name != "remote" && st.Cells > int64(cc.gc.MaxCells) {
					t.Errorf("%d cells survived MaxCells=%d", st.Cells, cc.gc.MaxCells)
				}
			})
		}
	}
}

// stressWorker is one TestStorageConcurrentStress client: each round
// puts a fresh cell, reads it back (a concurrent eviction may already
// have taken it), fetches a never-put key (a tiered backend writes the
// leader's answer back), lists and reads the stats.
func stressWorker(s *Storage, out *scenario.Outcome, w, rounds int) error {
	for i := 0; i < rounds; i++ {
		spec := testSpec(20 + float64(w*rounds+i)/100)
		key, _ := scenario.Key(spec)
		if err := s.Put(ctx, spec, out); err != nil {
			return err
		}
		if _, _, err := s.Get(ctx, key); err != nil {
			return fmt.Errorf("get racing eviction: %w", err)
		}
		other := testSpec(30 + float64(w*rounds+i)/100)
		okey, _ := scenario.Key(other)
		if _, _, err := s.Fetch(ctx, other, okey); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		if _, err := s.List(ctx); err != nil {
			return fmt.Errorf("list racing eviction: %w", err)
		}
		if _, err := s.Stats(ctx); err != nil {
			return err
		}
	}
	return nil
}

// nopBackend implements Backend but not GCBackend.
type nopBackend struct{}

func (nopBackend) Name() string { return "nop" }
func (nopBackend) Get(context.Context, string) (*scenario.Outcome, bool, error) {
	return nil, false, nil
}
func (nopBackend) Put(context.Context, scenario.Spec, *scenario.Outcome) error { return nil }
func (nopBackend) List(context.Context) ([]scenario.CellInfo, error)           { return nil, nil }
func (nopBackend) Len(context.Context) (int, error)                            { return 0, nil }

// TestSingleflightAndByteIdentity is the tentpole's core contract in one
// scene: k concurrent submits of one never-seen spec cost exactly one
// simulation (probe-verified), and every HTTP-fetched outcome is
// byte-identical to a direct scenario.Run.
func TestSingleflightAndByteIdentity(t *testing.T) {
	spec := testSpec(30)
	ticksBefore := scenario.ProbeSimTicks()
	want, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	oneRun := scenario.ProbeSimTicks() - ticksBefore
	if oneRun <= 0 {
		t.Fatalf("reference run moved the tick probe by %d", oneRun)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, Config{Shards: 4})
	c := NewClient(d.BaseURL())

	const k = 12
	start := scenario.ProbeSimTicks()
	var wg sync.WaitGroup
	results := make([]JobStatus, k)
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Submit(ctx, spec, true)
		}(i)
	}
	wg.Wait()
	if d := scenario.ProbeSimTicks() - start; d != oneRun {
		t.Errorf("%d concurrent submits simulated %d ticks, want one run's %d", k, d, oneRun)
	}
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if results[i].State != StateDone {
			t.Fatalf("submit %d finished %s: %s", i, results[i].State, results[i].Error)
		}
		got, err := json.Marshal(results[i].Outcome)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) {
			t.Errorf("submit %d outcome differs from direct scenario.Run", i)
		}
	}

	qs := d.Queue().Stats()
	if qs.Submitted != k || qs.Simulated != 1 {
		t.Errorf("queue stats %+v: want %d submitted, 1 simulated", qs, k)
	}
	if qs.CacheHits+qs.Coalesced != k-1 {
		t.Errorf("queue stats %+v: want %d hits+coalesced", qs, k-1)
	}

	// The poll path returns the same bytes from the store.
	st, err := c.Get(ctx, results[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || st.State != StateDone {
		t.Errorf("poll after completion: %+v, want cached done", st)
	}
	got, _ := json.Marshal(st.Outcome)
	if string(got) != string(wantJSON) {
		t.Error("polled outcome differs from direct scenario.Run")
	}
}

// TestWarmRestartServesFromStore: a second daemon over the same store
// directory answers a known spec from disk with zero simulation.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(31)

	d1 := startDaemon(t, Config{StoreDir: dir})
	st, err := NewClient(d1.BaseURL()).Submit(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Cached {
		t.Fatalf("first submit: %+v, want fresh done", st)
	}
	if err := d1.Stop(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.Stop(); err != nil {
			t.Error(err)
		}
	}()
	before := scenario.ProbeSimTicks()
	st2, err := NewClient(d2.BaseURL()).Submit(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("warm submit: %+v, want cached done", st2)
	}
	if d := scenario.ProbeSimTicks() - before; d != 0 {
		t.Errorf("warm submit simulated %d ticks, want 0", d)
	}
	a, _ := json.Marshal(st.Outcome)
	b, _ := json.Marshal(st2.Outcome)
	if string(a) != string(b) {
		t.Error("outcome changed across daemon restart")
	}
}

// TestHTTPValidation: malformed and unknown requests map to 400/404,
// not 500s or silent acceptance.
func TestHTTPValidation(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())

	// Invalid spec (unknown kind): 400.
	if _, err := c.Submit(ctx, scenario.Spec{Kind: "warp"}, false); err == nil {
		t.Error("invalid spec accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Code != 400 {
		t.Errorf("invalid spec: %v, want HTTP 400", err)
	}

	// Unknown key: 404, recognizable via IsNotFound.
	if _, err := c.Get(ctx, "deadbeef"); !IsNotFound(err) {
		t.Errorf("unknown key: %v, want 404", err)
	}

	// A typoed field must be rejected, not silently dropped from the
	// content hash (strict decoding).
	resp, err := c.hc.Post(d.BaseURL()+"/v1/scenarios", "application/json",
		strings.NewReader(`{"kind":"single","durration":600}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}

// faultyBackend is a MemBackend whose reads fail, as a disk store's do on
// an unreadable or undecodable cell.
type faultyBackend struct{ *MemBackend }

func (faultyBackend) Get(context.Context, string) (*scenario.Outcome, bool, error) {
	return nil, false, errors.New("reading cell: unexpected end of JSON input")
}

// TestSubmitErrorCodes: a submit is blamed on the client (400
// invalid_spec) only when its spec fails validation; a storage fault is
// the server's (500 internal).
func TestSubmitErrorCodes(t *testing.T) {
	d := startDaemon(t, Config{Backend: faultyBackend{NewMemBackend()}})
	c := NewClient(d.BaseURL())
	for _, tc := range []struct {
		name   string
		spec   scenario.Spec
		status int
		code   string
	}{
		{"storage fault", testSpec(30), http.StatusInternalServerError, CodeInternal},
		{"invalid spec", scenario.Spec{Kind: "warp"}, http.StatusBadRequest, CodeInvalidSpec},
	} {
		_, err := c.Submit(ctx, tc.spec, false)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error = %T (%v), want *StatusError", tc.name, err, err)
		}
		if se.Code != tc.status || se.APICode != tc.code {
			t.Errorf("%s -> %d/%q, want %d/%q", tc.name, se.Code, se.APICode, tc.status, tc.code)
		}
	}
}

// TestListAndStats: the listing reflects stored cells, the stats
// endpoint the engine accounting.
func TestListAndStats(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, testSpec(40+float64(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	lr, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Cells) != 2 || len(lr.Inflight) != 0 {
		t.Fatalf("list = %d cells / %d inflight, want 2 / 0", len(lr.Cells), len(lr.Inflight))
	}
	for i := 1; i < len(lr.Cells); i++ {
		if lr.Cells[i-1].Key >= lr.Cells[i].Key {
			t.Error("listing not sorted by key")
		}
	}
	sr, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Queue.Simulated != 2 || sr.SimRuns < 2 || sr.SimTicks <= 0 {
		t.Errorf("stats = %+v, want 2 simulations with ticks accounted", sr)
	}
	if sr.Storage.Puts != 2 || sr.Storage.Cells != 2 {
		t.Errorf("storage stats = %+v, want 2 puts / 2 cells", sr.Storage)
	}
}

// TestStoppedQueueRejectsSubmits: after Stop the queue answers
// ErrStopped instead of queueing into a dead worker set.
func TestStoppedQueueRejectsSubmits(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Queue().Submit(ctx, testSpec(24)); err != ErrStopped {
		t.Errorf("submit after stop: %v, want ErrStopped", err)
	}
	// Every storage method answers ErrStopped too (not a panic).
	s := d.Storage()
	spec := testSpec(24)
	key, _ := scenario.Key(spec)
	_, _, getErr := s.Get(ctx, key)
	_, _, fetchErr := s.Fetch(ctx, spec, key)
	_, listErr := s.List(ctx)
	_, lenErr := s.Len(ctx)
	_, statsErr := s.Stats(ctx)
	for _, c := range []struct {
		op  string
		err error
	}{
		{"get", getErr}, {"fetch", fetchErr}, {"put", s.Put(ctx, spec, &scenario.Outcome{})},
		{"list", listErr}, {"len", lenErr}, {"stats", statsErr},
	} {
		if c.err != ErrStopped {
			t.Errorf("storage %s after stop: %v, want ErrStopped", c.op, c.err)
		}
	}
}

// TestLoadTestSmoke drives the two-phase load test against a tiny
// self-hosted daemon: the dedup invariant holds and the hot phase hits
// the cache.
func TestLoadTestSmoke(t *testing.T) {
	d := startDaemon(t, Config{Shards: 4})
	res, err := RunLoadTest(NewClient(d.BaseURL()), LoadTestConfig{
		Clients: 4, ColdSpecs: 3, HotSpecs: 2, Requests: 10,
		Duration: 120, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ColdSimulated != int64(res.UniqueSpecs) {
		t.Errorf("cold phase simulated %d, want %d", res.ColdSimulated, res.UniqueSpecs)
	}
	if res.HotRequests != 4*10 {
		t.Errorf("hot requests = %d, want 40", res.HotRequests)
	}
	if res.HitRate <= 0.5 {
		t.Errorf("hit rate %.2f, want mostly warm", res.HitRate)
	}
	if res.WarmP99MS <= 0 {
		t.Error("warm p99 not measured")
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
}
