package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// fig1Spec is the Fig. 1 telemetry probe at the paper's setting,
// specs/fig1.json.
func fig1Spec() scenario.Spec {
	return scenario.Spec{
		Kind: scenario.KindFig1, Name: "fig1", Duration: 700, Record: true,
		Params: scenario.Params{"step_time": 100, "bus_base_latency": 2, "bus_transfer_time": 0.5, "bus_sensors": 16},
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

// closeCounter is a MemBackend that counts its Close calls, as a
// daemon's closable backend (a RemoteBackend) sees them, and runs
// atClose, when set, inside each.
type closeCounter struct {
	*MemBackend
	closes  atomic.Int64
	atClose func()
}

func (b *closeCounter) Close() error {
	b.closes.Add(1)
	if b.atClose != nil {
		b.atClose()
	}
	return nil
}

// TestDaemonStopOrder: Stop closes the backend last, once the API, the
// queue and storage are all down, so nothing can reach it any more.
func TestDaemonStopOrder(t *testing.T) {
	backend := &closeCounter{MemBackend: NewMemBackend()}
	d := startDaemon(t, Config{Backend: backend})
	var httpErr, submitErr, getErr error
	backend.atClose = func() {
		var resp *http.Response
		if resp, httpErr = http.Get(d.BaseURL() + "/v1/stats"); httpErr == nil {
			resp.Body.Close()
		}
		_, submitErr = d.queue.Submit(ctx, testSpec(24))
		_, _, getErr = d.storage.Get(ctx, "deadbeef")
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := backend.closes.Load(); n != 1 {
		t.Fatalf("Stop closed the backend %d times, want 1", n)
	}
	if httpErr == nil {
		t.Error("the API still answered when the backend closed")
	}
	if submitErr != ErrStopped || getErr != ErrStopped {
		t.Errorf("at backend close: submit %v, storage get %v; want ErrStopped from both", submitErr, getErr)
	}
}

// TestDaemonFailedStart: a Start whose bind fails stops the queue and
// storage it brought up, so every later call answers ErrStopped and no
// worker is left running, and leaves the backend open for Stop, which
// closes it exactly once however often it is called. Configuration
// errors surface from New and NewStorage.
func TestDaemonFailedStart(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	backend := &closeCounter{MemBackend: NewMemBackend()}
	d, err := New(Config{Addr: taken.Addr().String(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("Start succeeded on an address already in use")
	}
	if n := backend.closes.Load(); n != 0 {
		t.Errorf("failed Start closed the backend %d times, want 0 (Stop owns it)", n)
	}

	if _, err := d.queue.Submit(ctx, testSpec(24)); err != ErrStopped {
		t.Errorf("submit after a failed Start: %v, want ErrStopped", err)
	}
	assertStorageStopped(t, d.storage)
	workers := make(chan struct{})
	go func() {
		d.queue.wg.Wait()
		close(workers)
	}()
	select {
	case <-workers:
	case <-time.After(10 * time.Second):
		t.Fatal("a queue worker is still running after a failed Start")
	}

	for i := 0; i < 2; i++ {
		if err := d.Stop(); err != nil {
			t.Fatalf("Stop #%d after a failed Start: %v", i+1, err)
		}
		if n := backend.closes.Load(); n != 1 {
			t.Errorf("after Stop #%d the backend was closed %d times, want 1", i+1, n)
		}
	}

	for _, cfg := range []Config{{Shards: -1}, {EngineWorkers: -1}} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid configuration", cfg)
		}
	}
	if _, err := NewStorage(nil); err == nil {
		t.Error("NewStorage accepted a nil backend")
	}
}

// decodedBackend hides a backend's encoded path, as a tracing wrapper
// that implements only Backend does, so storage takes its adapters.
type decodedBackend struct{ Backend }

// listCounter is a MemBackend that counts its List calls.
type listCounter struct {
	*MemBackend
	lists atomic.Int64
}

func (b *listCounter) List(ctx context.Context) ([]scenario.CellInfo, error) {
	b.lists.Add(1)
	return b.MemBackend.List(ctx)
}

// startStorage builds a storage part, stopping it on cleanup.
func startStorage(t *testing.T, b Backend) *Storage {
	t.Helper()
	s, err := NewStorage(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
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
	s := startStorage(t, b)
	spec := testSpec(25)
	key, _ := scenario.Key(spec)

	fetched := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(ctx, testSpec(26), "parked")
		fetched <- err
	}()
	<-b.entered

	enc := encode(t, out)
	others := make(chan error, 1)
	go func() {
		if err := s.Put(ctx, spec, enc); err != nil {
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
// concurrently through Storage over every built-in backend under -race.
// Afterwards Puts is exact and Cells/Bytes equal a fresh List.
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
		{"decoded", func(*testing.T) Backend { return decodedBackend{NewMemBackend()} }},
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

	enc := encode(t, out)
	const workers, rounds = 4, 8
	for _, bc := range backends {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make(t)
			s := startStorage(t, b)
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs <- stressWorker(s, enc, w, rounds)
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
		})
	}
}

// stressWorker is one TestStorageConcurrentStress client: each round
// puts a fresh cell, reads it back, fetches a never-put key (a tiered
// backend writes the leader's answer back), lists and reads the stats.
func stressWorker(s *Storage, enc []byte, w, rounds int) error {
	for i := 0; i < rounds; i++ {
		spec := testSpec(20 + float64(w*rounds+i)/100)
		key, _ := scenario.Key(spec)
		if err := s.Put(ctx, spec, enc); err != nil {
			return err
		}
		if _, ok, err := s.Get(ctx, key); err != nil || !ok {
			return fmt.Errorf("get after put: ok=%v err=%v", ok, err)
		}
		other := testSpec(30 + float64(w*rounds+i)/100)
		okey, _ := scenario.Key(other)
		if _, _, err := s.Fetch(ctx, other, okey); err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		if _, err := s.List(ctx); err != nil {
			return fmt.Errorf("list: %w", err)
		}
		if _, err := s.Stats(ctx); err != nil {
			return err
		}
	}
	return nil
}

// TestSingleflightAndByteIdentity is the daemon's core contract in one
// scene: k concurrent clients that each submit every one of n
// never-seen specs cost exactly n simulations (counted by the queue and
// by the tick probe), and every HTTP-fetched outcome is byte-identical
// to a direct scenario.Run. The herd is k submits of one spec; the
// population has each client walk all specs from its own offset.
func TestSingleflightAndByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name           string
		clients, specs int
	}{
		{"herd", 12, 1},
		{"population", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := make([]scenario.Spec, tc.specs)
			wantJSON := make([]string, tc.specs)
			var wantTicks int64
			for i := range specs {
				specs[i] = testSpec(30 + float64(i))
				before := scenario.ProbeSimTicks()
				want, err := scenario.Run(specs[i])
				if err != nil {
					t.Fatal(err)
				}
				wantTicks += scenario.ProbeSimTicks() - before
				b, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON[i] = string(b)
			}
			if wantTicks <= 0 {
				t.Fatalf("reference runs moved the tick probe by %d", wantTicks)
			}

			d := startDaemon(t, Config{Shards: 4})
			c := NewClient(d.BaseURL())

			n := tc.clients * tc.specs
			start := scenario.ProbeSimTicks()
			var wg sync.WaitGroup
			results := make([]JobStatus, n)
			errs := make([]error, n)
			for k := 0; k < tc.clients; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for i := 0; i < tc.specs; i++ {
						s := (k + i) % tc.specs
						results[k*tc.specs+s], errs[k*tc.specs+s] = c.Submit(ctx, specs[s], true)
					}
				}(k)
			}
			wg.Wait()
			if d := scenario.ProbeSimTicks() - start; d != wantTicks {
				t.Errorf("%d submits of %d specs simulated %d ticks, want %d", n, tc.specs, d, wantTicks)
			}
			for i := range results {
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
				if string(got) != wantJSON[i%tc.specs] {
					t.Errorf("submit %d outcome differs from direct scenario.Run", i)
				}
			}

			qs := d.queue.Stats()
			if qs.Submitted != int64(n) || qs.Simulated != int64(tc.specs) {
				t.Errorf("queue stats %+v: want %d submitted, %d simulated", qs, n, tc.specs)
			}
			if qs.CacheHits+qs.Coalesced != int64(n-tc.specs) {
				t.Errorf("queue stats %+v: want %d hits+coalesced", qs, n-tc.specs)
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
			if string(got) != wantJSON[0] {
				t.Error("polled outcome differs from direct scenario.Run")
			}
		})
	}
}

// TestReplyBytes pins the reply bodies to what json.NewEncoder writes
// for the JobStatus with the decoded outcome attached: a fresh ?wait=1
// submit, a cached submit and a poll of the stored key, on a disk
// daemon, an in-memory daemon, a follower whose local tier holds the
// key after its first submit, and a disk daemon whose backend offers
// only the decoded methods. The spec records its series, so a body runs
// past net/http's 2 KiB buffer, beyond which a reply without a
// Content-Length is sent chunked: each reply must carry its length.
func TestReplyBytes(t *testing.T) {
	spec := testSpec(75)
	spec.Duration, spec.Record = 60, true
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	encodeStatus := func(st JobStatus) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(st); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	leader := startDaemon(t, Config{})
	disk, err := OpenStoreBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		// firstCached: a follower's first submit is a remote hit.
		firstCached bool
	}{
		{"disk", Config{StoreDir: t.TempDir()}, false},
		{"mem", Config{}, false},
		{"follower", Config{StoreDir: t.TempDir(), Remote: leader.BaseURL()}, true},
		{"decoded", Config{Backend: decodedBackend{disk}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := startDaemon(t, tc.cfg)
			for _, call := range []struct {
				method, path string
				cached       bool
			}{
				{http.MethodPost, "/v1/scenarios?wait=1", tc.firstCached},
				{http.MethodPost, "/v1/scenarios", true},
				{http.MethodGet, "/v1/scenarios/" + key, true},
			} {
				var rd io.Reader
				if call.method == http.MethodPost {
					rd = bytes.NewReader(body)
				}
				req, err := http.NewRequest(call.method, d.BaseURL()+call.path, rd)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s: %d (%v): %s", call.method, call.path, resp.StatusCode, err, got)
				}
				if len(got) <= 2048 || resp.ContentLength != int64(len(got)) {
					t.Errorf("%s %s: Content-Length %d for a %d-byte body, want its length past 2 KiB",
						call.method, call.path, resp.ContentLength, len(got))
				}
				var st JobStatus
				if err := json.Unmarshal(got, &st); err != nil {
					t.Fatal(err)
				}
				want := encodeStatus(JobStatus{Key: key, State: StateDone, Cached: call.cached, Outcome: out})
				if string(got) != encodeStatus(st) || string(got) != want {
					t.Errorf("%s %s answered\n%.300s\nwant\n%.300s", call.method, call.path, got, want)
				}
			}
		})
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

// TestOutcomelessCellIsMiss: a store cell without an outcome, or with
// one that does not decode as an Outcome, is a miss that the daemon
// simulates and overwrites, never a done job whose outcome is missing
// or one the client cannot decode; and no backend stores a nil outcome.
func TestOutcomelessCellIsMiss(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, Config{StoreDir: dir})
	c := NewClient(d.BaseURL())
	cells := []string{
		`{"version":1,"outcome":null}`,
		`{"version":1,"outcome":5}`,
		`{"version":1,"outcome":{"units":"x"}}`,
	}
	for i, cell := range cells {
		spec := testSpec(32 + float64(i)/10)
		key, err := scenario.Key(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte(cell), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			st, err := c.Submit(ctx, spec, true)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if st.State != StateDone || st.Outcome == nil || st.Cached != cached {
				t.Errorf("%s: submit: state %s, outcome %v, cached %v; want done with an outcome, cached %v",
					cell, st.State, st.Outcome != nil, st.Cached, cached)
			}
		}
	}
	if n := d.queue.Stats().Simulated; n != int64(len(cells)) {
		t.Errorf("simulated %d runs for %d unusable cells, want one each", n, len(cells))
	}

	disk, err := OpenStoreBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(32)
	for _, b := range []interface {
		Backend
		encodedBackend
	}{NewMemBackend(), disk} {
		if err := b.Put(ctx, spec, nil); err == nil {
			t.Errorf("%s stored a nil outcome", b.Name())
		}
		for _, enc := range [][]byte{nil, []byte("null")} {
			if err := b.PutEncoded(ctx, spec, enc); err == nil {
				t.Errorf("%s stored the encoded outcome %q", b.Name(), enc)
			}
		}
		if n, err := b.Len(ctx); err != nil || n != 0 {
			t.Errorf("%s holds %d cells (%v) after a rejected Put", b.Name(), n, err)
		}
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
	// content hash (strict decoding), and so must a field or param the
	// format no longer has: the rack's tolerance relaxation and the
	// coordinator's fan trimming.
	rack := `"duration":600,"fleet":{"size":4,"seed":1,"recirc":0.03`
	for _, body := range []string{
		`{"kind":"single","durration":600}`,
		`{"kind":"fleet",` + rack + `,"recirc_tol":0.001}}`,
		`{"kind":"fleet",` + rack + `,"max_recirc_passes":25}}`,
		`{"kind":"fleetcoord",` + rack + `},"params":{"fan_trim":0.1}}`,
	} {
		resp, err := c.hc.Post(d.BaseURL()+"/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || ae.Code != CodeInvalidSpec {
			t.Errorf("%s: HTTP %d, code %q (%v), want 400 %s", body, resp.StatusCode, ae.Code, err, CodeInvalidSpec)
		}
	}

	// A body is exactly one JSON value: a valid spec or cell with data
	// after it is refused as invalid_spec on submit and on push, and
	// nothing is queued or stored under its key.
	spec := testSpec(31)
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cellBody, err := json.Marshal(pushRequest{Spec: spec, Outcome: &scenario.Outcome{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/scenarios", specBody},
		{http.MethodPut, "/v1/scenarios/" + key, cellBody},
	} {
		req, err := http.NewRequest(tc.method, d.BaseURL()+tc.path,
			bytes.NewReader(append(tc.body, ` {"kind":"fleet"} trailing garbage`...)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || ae.Code != CodeInvalidSpec {
			t.Errorf("%s with trailing data: HTTP %d, code %q (%v), want 400 %s",
				tc.method, resp.StatusCode, ae.Code, err, CodeInvalidSpec)
		}
	}
	if _, err := c.Get(ctx, key); !IsNotFound(err) {
		t.Errorf("refused bodies left key %s behind: %v", key, err)
	}
}

// parkedQueue is a daemon whose queue runs a stub in place of the
// engine: the first run parks until release, every later run returns
// out at once, and runs counts the stub's calls per content key.
type parkedQueue struct {
	d       *Daemon
	out     *scenario.Outcome
	parked  chan struct{} // closed once the first run has parked
	release func()

	mu   sync.Mutex
	runs map[string]int
}

// startParked builds a daemon from cfg, sets its queue's run seam
// before Start, and on cleanup releases the parked run and stops the
// daemon.
func startParked(t *testing.T, cfg Config) *parkedQueue {
	t.Helper()
	out, err := scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := &parkedQueue{d: d, out: out, parked: make(chan struct{}), runs: make(map[string]int)}
	gate := make(chan struct{})
	var once sync.Once
	p.release = func() { once.Do(func() { close(gate) }) }
	d.queue.run = func(spec scenario.Spec) (*scenario.Outcome, error) {
		key, err := scenario.Key(spec)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		first := len(p.runs) == 0
		p.runs[key]++
		p.mu.Unlock()
		if first {
			close(p.parked)
			<-gate
		}
		return out, nil
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.release()
		if err := d.Stop(); err != nil {
			t.Errorf("stopping daemon: %v", err)
		}
	})
	return p
}

// park submits spec and returns once its run has parked.
func (p *parkedQueue) park(t *testing.T, spec scenario.Spec) {
	t.Helper()
	if _, err := p.d.queue.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.parked:
	case <-time.After(20 * time.Second):
		t.Fatal("the first run never started")
	}
}

// runCount reports how often the stub ran key.
func (p *parkedQueue) runCount(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs[key]
}

// TestParkedJobStallsNoOne: a job parked in its run holds up only the
// worker running it. With two workers, eight other keys submitted one
// at a time each reach done on the free worker.
func TestParkedJobStallsNoOne(t *testing.T) {
	p := startParked(t, Config{Shards: 2})
	p.park(t, testSpec(50))
	for i := 0; i < 8; i++ {
		st, err := p.d.queue.Submit(ctx, testSpec(51+float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		st, _, err = p.d.queue.Wait(wctx, st.Key)
		cancel()
		if err != nil || st.State != StateDone {
			t.Fatalf("job %d is %s after 20 s (%v), want done beside a parked job", i, st.State, err)
		}
	}
}

// TestWorkerRecheckAbsorbsDuplicate: a queued job whose cell lands in
// the store before a worker takes it, as a duplicate enqueued in the
// retire window does, is answered from the store and never run.
func TestWorkerRecheckAbsorbsDuplicate(t *testing.T) {
	p := startParked(t, Config{Shards: 1})
	p.park(t, testSpec(50))
	spec := testSpec(51)
	st, err := p.d.queue.Submit(ctx, spec)
	if err != nil || st.State != StateQueued {
		t.Fatalf("submit behind the parked job = %+v (%v), want queued", st, err)
	}
	if err := p.d.storage.Put(ctx, spec, encode(t, p.out)); err != nil {
		t.Fatal(err)
	}
	p.release()
	wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	st, _, err = p.d.queue.Wait(wctx, st.Key)
	if err != nil || st.State != StateDone || !st.Cached {
		t.Fatalf("duplicate finished %+v (%v), want cached done", st, err)
	}
	if n := p.runCount(st.Key); n != 0 {
		t.Errorf("duplicate ran %d times, want 0", n)
	}
}

// faultyBackend is a MemBackend whose reads fail, as a disk store's do on
// an unreadable cell. The storage module reads through GetEncoded.
type faultyBackend struct{ *MemBackend }

func (faultyBackend) GetEncoded(context.Context, string) ([]byte, bool, error) {
	return nil, false, errors.New("reading cell: unexpected end of JSON input")
}

// TestSubmitErrorCodes: a submit is blamed on the client (400
// invalid_spec) only when its spec fails validation; a storage fault or
// a failed wait is the server's (500 internal).
func TestSubmitErrorCodes(t *testing.T) {
	d := startDaemon(t, Config{Backend: faultyBackend{NewMemBackend()}})
	c := NewClient(d.BaseURL())
	negative := fig1Spec()
	negative.Duration = -5
	zeroTick := fig1Spec()
	zeroTick.Base = &sim.Config{}
	typo := testSpec(30)
	typo.Jobs[0].Workload.Params = scenario.Params{"uu": 0.6}
	deepRack := scenario.Spec{Kind: scenario.KindFleet, Duration: 60,
		Fleet: &scenario.FleetSpec{Size: 4, Seed: 1, Recirc: 0.01, RecircPasses: 5}}
	negBudget := scenario.Spec{Kind: scenario.KindFleetCoord, Duration: 60,
		Fleet:  &scenario.FleetSpec{Size: 4, Seed: 1, Recirc: 0.01},
		Params: scenario.Params{"power_budget_w": -5}}
	zeroBudget := negBudget
	zeroBudget.Params = scenario.Params{"power_budget_w": 0}
	for _, tc := range []struct {
		name   string
		spec   scenario.Spec
		status int
		code   string
	}{
		{"storage fault", testSpec(30), http.StatusInternalServerError, CodeInternal},
		{"invalid spec", scenario.Spec{Kind: "warp"}, http.StatusBadRequest, CodeInvalidSpec},
		{"fig1 negative duration", negative, http.StatusBadRequest, CodeInvalidSpec},
		{"fig1 base with tick 0", zeroTick, http.StatusBadRequest, CodeInvalidSpec},
		{"typo'd param", typo, http.StatusBadRequest, CodeInvalidSpec},
		{"recirc_passes above the node count", deepRack, http.StatusBadRequest, CodeInvalidSpec},
		{"negative power budget", negBudget, http.StatusBadRequest, CodeInvalidSpec},
		{"zero power budget", zeroBudget, http.StatusBadRequest, CodeInvalidSpec},
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

	// A ?wait=1 whose wait fails answers the wait's error, not 202 with
	// the status from before the wait.
	p := startParked(t, Config{Shards: 1})
	body, err := json.Marshal(testSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/scenarios?wait=1", bytes.NewReader(body)).WithContext(cancelled)
	rec := httptest.NewRecorder()
	p.d.http.srv.Handler.ServeHTTP(rec, req)
	var apiErr apiError
	if err := json.NewDecoder(rec.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusInternalServerError || apiErr.Code != CodeInternal {
		t.Errorf("failed wait -> %d/%q, want %d/%q", rec.Code, apiErr.Code, http.StatusInternalServerError, CodeInternal)
	}
}

// indentBody re-indents a JSON body, so it no longer hashes to its
// spec's key and the daemon decodes it.
func indentBody(t testing.TB, body []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Indent(&b, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// serve makes one request through a daemon's route table, which works
// after Stop too, and returns its status and body.
func serve(d *Daemon, method, path string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	d.http.srv.Handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestCanonicalSubmitCounts: a submit answered from its canonical body
// counts as a decoded one does, and a follower answers it without
// calling its leader. One sequence of submits (a fresh spec, its
// canonical body, its re-indented body, an invalid spec, a second fresh
// spec and its canonical body, then the first spec's canonical body once
// the daemon has stopped) runs on a disk daemon and on a follower of an
// in-memory leader, each twice from scratch: with the bodies as listed,
// and with every body re-indented, which sends every submit down the
// decoding path that every body took before canonical bodies were
// answered from their cells. After each step both runs must read the
// same submit reply, the same /v1/stats (tier split included), and the
// same calls from the follower to its leader.
func TestCanonicalSubmitCounts(t *testing.T) {
	fresh, second := testSpec(61), testSpec(62)
	steps := []struct {
		name     string
		spec     scenario.Spec
		indented bool
		// canonicalHit: answered from the follower's local tier alone.
		canonicalHit bool
		stop         bool
	}{
		{"fresh", fresh, false, false, false},
		{"canonical hit", fresh, false, true, false},
		{"re-indented hit", fresh, true, false, false},
		{"invalid", scenario.Spec{Kind: "warp"}, false, false, false},
		{"second fresh", second, false, false, false},
		{"second canonical hit", second, false, true, false},
		{"stopped", fresh, false, false, true},
	}
	// step is what one submit left behind.
	type step struct {
		status      int
		reply       string
		statsStatus int
		stats       string
		calls       []string
	}
	run := func(t *testing.T, tiered, indentAll bool) []step {
		var mu sync.Mutex
		var calls []string
		cfg := Config{StoreDir: t.TempDir()}
		if tiered {
			leader := startDaemon(t, Config{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				calls = append(calls, r.Method+" "+r.URL.RequestURI())
				mu.Unlock()
				leader.http.srv.Handler.ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)
			cfg = Config{Remote: srv.URL}
		}
		d := startDaemon(t, cfg)
		var out []step
		for _, s := range steps {
			body, err := scenario.CanonicalJSON(s.spec)
			if err != nil {
				t.Fatal(err)
			}
			if s.indented || indentAll {
				body = indentBody(t, body)
			}
			if s.stop {
				if err := d.Stop(); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			calls = nil
			mu.Unlock()
			var st step
			st.status, st.reply = serve(d, http.MethodPost, "/v1/scenarios?wait=1", body)
			mu.Lock()
			st.calls = calls
			mu.Unlock()
			var sr StatsResponse
			st.statsStatus, st.stats = serve(d, http.MethodGet, "/v1/stats", nil)
			if st.statsStatus == http.StatusOK {
				if err := json.Unmarshal([]byte(st.stats), &sr); err != nil {
					t.Fatal(err)
				}
				// The engine probes are process-wide, and degraded time is
				// wall time: neither is a count of this daemon's.
				sr.SimTicks, sr.SimRuns = 0, 0
				if sr.Storage.Tier != nil {
					sr.Storage.Tier.DegradedMS = 0
				}
				b, err := json.Marshal(sr)
				if err != nil {
					t.Fatal(err)
				}
				st.stats = string(b)
			}
			out = append(out, st)
		}
		return out
	}
	for _, tiered := range []bool{false, true} {
		name := map[bool]string{false: "disk", true: "follower"}[tiered]
		t.Run(name, func(t *testing.T) {
			got, want := run(t, tiered, false), run(t, tiered, true)
			for i, s := range steps {
				g, w := got[i], want[i]
				if g.status != w.status || g.statsStatus != w.statsStatus || g.stats != w.stats ||
					fmt.Sprint(g.calls) != fmt.Sprint(w.calls) {
					t.Errorf("%s: submit %d, stats %d %s, leader calls %q\nwant submit %d, stats %d %s, leader calls %q",
						s.name, g.status, g.statsStatus, g.stats, g.calls, w.status, w.statsStatus, w.stats, w.calls)
				}
				if g.reply != w.reply {
					t.Errorf("%s: replied %.200s\nwant %.200s", s.name, g.reply, w.reply)
				}
				if s.canonicalHit && len(g.calls) != 0 {
					t.Errorf("%s: a canonical local hit called the leader: %q", s.name, g.calls)
				}
			}
			if !strings.Contains(got[0].reply, `"state":"done"`) {
				t.Errorf("fresh spec answered %.200s, want done", got[0].reply)
			}
			if tiered && len(got[0].calls) != 1 {
				t.Errorf("fresh spec on a follower called the leader %q, want once", got[0].calls)
			}
		})
	}
}

// TestCanonicalSubmitRefusedCells: a key answers only with the outcome
// of the spec that hashes to it. A disk store can hold cells that older
// code wrote, for a spec Validate now refuses and for the stale bodies
// of staleBodies, and a cell copied under another valid spec's key
// (misfiledBody); an in-memory daemon refuses to store the refused spec.
// A GET of each body's key answers 404, and each body gets what the
// decoding path gives the same body re-indented, never a 200: 400
// invalid_spec, or, for the key that moved and the misfiled key, the
// never-started queue's 503. A cell Put wrote answers its canonical body
// and the body re-indented.
func TestCanonicalSubmitRefusedCells(t *testing.T) {
	valid := testSpec(63)
	valid.Duration = 10
	out, err := scenario.Run(valid)
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(t, out)
	refused := valid
	refused.Duration = -1
	for _, onDisk := range []bool{true, false} {
		dir := t.TempDir()
		cfg := Config{}
		if onDisk {
			cfg.StoreDir = dir
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.storage.Put(ctx, valid, enc); err != nil {
			t.Fatal(err)
		}
		if err := d.storage.Put(ctx, refused, enc); (err == nil) != onDisk {
			t.Fatalf("disk %v: Put of a spec Validate refuses = %v", onDisk, err)
		}
		bodies := [][]byte{mustCanonical(t, refused)}
		if onDisk {
			bodies = append(bodies, staleBodies(t, dir, valid, enc)...)
			misfiled := testSpec(64)
			misfiled.Duration = 10
			bodies = append(bodies, misfiledBody(t, dir, valid, misfiled))
		}
		for _, body := range bodies {
			if code, reply := serve(d, http.MethodGet, "/v1/scenarios/"+scenario.KeyOf(body), nil); code != http.StatusNotFound {
				t.Errorf("disk %v: GET of the cell for %.80s answered %d: %.200s", onDisk, body, code, reply)
			}
			code, reply := serve(d, http.MethodPost, "/v1/scenarios", body)
			wantCode, wantReply := serve(d, http.MethodPost, "/v1/scenarios", indentBody(t, body))
			if code != wantCode || reply != wantReply || code == http.StatusOK {
				t.Errorf("disk %v: submit of %.80s answered %d %.200s\nwant %d %.200s", onDisk, body, code, reply, wantCode, wantReply)
			}
		}

		body := mustCanonical(t, valid)
		for _, body := range [][]byte{indentBody(t, body), body} {
			if code, reply := serve(d, http.MethodPost, "/v1/scenarios", body); code != http.StatusOK || !strings.Contains(reply, `"cached":true`) {
				t.Errorf("disk %v: submit of a stored spec's %.80s answered %d: %.200s", onDisk, body, code, reply)
			}
		}
	}
}

// TestSubmitFig1: the Fig. 1 probe is a kind like any other, so a daemon
// that links only the scenario layer simulates it.
func TestSubmitFig1(t *testing.T) {
	d := startDaemon(t, Config{})
	st, err := NewClient(d.BaseURL()).Submit(ctx, fig1Spec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Outcome == nil || len(st.Outcome.Units) != 1 {
		t.Fatalf("fig1 submit -> %s, want done with one unit", st.State)
	}
	if lag := st.Outcome.Units[0].Metric(scenario.MetricMeasuredLagS, 0); lag <= 0 {
		t.Errorf("fig1 measured lag = %v, want > 0", lag)
	}
}

// listCells fetches GET /v1/scenarios and returns its raw "cells" member.
func listCells(t *testing.T, d *Daemon) json.RawMessage {
	t.Helper()
	resp, err := http.Get(d.BaseURL() + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body["cells"]
}

// TestListAndStats: the listing reflects stored cells, the stats
// endpoint the engine accounting. The raw listing pins the wire format:
// an empty daemon lists "cells":[], and a cell carries exactly the
// key/kind/name/units/version/size members.
func TestListAndStats(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())
	if raw := listCells(t, d); string(raw) != "[]" {
		t.Errorf("empty daemon lists cells %s, want []", raw)
	}
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
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal(listCells(t, d), &raw); err != nil || len(raw) != 2 {
		t.Fatalf("raw listing: %d cells (%v), want 2", len(raw), err)
	}
	for _, member := range []string{"key", "kind", "name", "units", "version", "size"} {
		if _, ok := raw[0][member]; !ok {
			t.Errorf("listed cell lacks %q: %v", member, raw[0])
		}
	}
	if len(raw[0]) != 6 {
		t.Errorf("listed cell has %d members, want 6: %v", len(raw[0]), raw[0])
	}
	if got, want := string(raw[0]["key"]), `"`+lr.Cells[0].Key+`"`; got != want {
		t.Errorf("listed key = %s, want %s", got, want)
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

	// The in-memory backend sizes a cell as the JSON of its spec and
	// outcome together, and counts its units from the outcome bytes.
	b := NewMemBackend()
	spec := testSpec(40)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	out.Units = append(out.Units, out.Units[0])
	putKey(t, b, spec, out)
	whole, err := json.Marshal(struct {
		Spec    scenario.Spec     `json:"spec"`
		Outcome *scenario.Outcome `json:"outcome"`
	}{spec, out})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := b.List(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("mem listing: %d cells (%v), want 1", len(infos), err)
	}
	if got := infos[0]; got.Size != int64(len(whole)) || got.Units != 2 || got.Kind != spec.Kind || got.Name != spec.Name {
		t.Errorf("mem cell listed as %+v, want size %d, 2 units, kind %s, name %s", got, len(whole), spec.Kind, spec.Name)
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
	if _, err := d.queue.Submit(ctx, testSpec(24)); err != ErrStopped {
		t.Errorf("submit after stop: %v, want ErrStopped", err)
	}
	assertStorageStopped(t, d.storage)
}

// TestPushAfterStop: a push that reaches a stopped storage answers 503
// shutting_down, as a submit does.
func TestPushAfterStop(t *testing.T) {
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.storage.Stop()
	spec := testSpec(24)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(pushRequest{Spec: spec, Outcome: out})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	d.http.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/scenarios/"+key, bytes.NewReader(body)))
	var apiErr apiError
	if err := json.NewDecoder(rec.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusServiceUnavailable || apiErr.Code != CodeShuttingDown {
		t.Errorf("push after stop -> %d/%q, want %d/%q", rec.Code, apiErr.Code, http.StatusServiceUnavailable, CodeShuttingDown)
	}
}

// assertStorageStopped checks that every storage method answers
// ErrStopped (not a panic).
func assertStorageStopped(t *testing.T, s *Storage) {
	t.Helper()
	spec := testSpec(24)
	key, _ := scenario.Key(spec)
	_, _, getErr := s.Get(ctx, key)
	_, _, fetchErr := s.Fetch(ctx, spec, key)
	_, listErr := s.List(ctx)
	_, statsErr := s.Stats(ctx)
	for _, c := range []struct {
		op  string
		err error
	}{
		{"get", getErr}, {"fetch", fetchErr}, {"put", s.Put(ctx, spec, []byte(`{"kind":"single","units":null}`))},
		{"list", listErr}, {"stats", statsErr},
	} {
		if c.err != ErrStopped {
			t.Errorf("storage %s after stop: %v, want ErrStopped", c.op, c.err)
		}
	}
}

// TestFailedJobsBounded: the in-flight table keeps at most
// maxFailedJobs failed jobs and forgets the oldest first; a kept
// failure still polls with its error, and resubmitting it retries
// without pushing out another. The specs pass Validate and fail in the
// policy factory (pid-fixed has no region 7).
func TestFailedJobsBounded(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())
	specs := make([]scenario.Spec, maxFailedJobs+1)
	keys := make([]string, len(specs))
	for i := range specs {
		specs[i] = testSpec(24)
		specs[i].Name = fmt.Sprintf("bad-region-%d", i)
		specs[i].Jobs[0].Policy = scenario.FactoryRef{Name: "pid-fixed", Params: scenario.Params{"region": 7}}
		st, err := c.Submit(ctx, specs[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed {
			t.Fatalf("submit %d = %+v, want failed", i, st)
		}
		keys[i] = st.Key
	}
	assertFailedKept := func(stage string) {
		t.Helper()
		lr, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Inflight) != maxFailedJobs {
			t.Errorf("%s: %d jobs in flight, want the %d newest failures", stage, len(lr.Inflight), maxFailedJobs)
		}
		for _, i := range []int{1, maxFailedJobs} {
			st, err := c.Get(ctx, keys[i])
			if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "region 7") {
				t.Errorf("%s: poll of failure %d = %+v (%v), want failed with its error", stage, i, st, err)
			}
		}
		if _, err := c.Get(ctx, keys[0]); !IsNotFound(err) {
			t.Errorf("%s: poll of the oldest failure: %v, want not found", stage, err)
		}
	}
	assertFailedKept("after the failures")

	if st, err := c.Submit(ctx, specs[maxFailedJobs], true); err != nil || st.State != StateFailed {
		t.Fatalf("resubmit of a kept failure = %+v (%v), want failed again", st, err)
	}
	if n := d.queue.Stats().Failed; n != maxFailedJobs+2 {
		t.Errorf("%d runs failed, want %d (the resubmit retries)", n, maxFailedJobs+2)
	}
	assertFailedKept("after the resubmit")
}

// TestRunPanicFailsItsJob: a runner panic fails that job with the
// panic's message, and the worker goes on to run the next spec. The
// spec validates and panics the engine for real: one recorded horizon
// of 1e15 ticks is past what make can allocate.
func TestRunPanicFailsItsJob(t *testing.T) {
	d := startDaemon(t, Config{Shards: 1})
	c := NewClient(d.BaseURL())
	huge := testSpec(24)
	huge.Duration, huge.Record = 1e15, true
	st, err := c.Submit(ctx, huge, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("huge horizon -> %+v, want failed with the panic", st)
	}
	if st, err := c.Submit(ctx, testSpec(24), true); err != nil || st.State != StateDone {
		t.Fatalf("next submit -> %+v (%v), want done", st, err)
	}
}

// TestWireValues pins the literal strings clients see in error envelopes
// and job states. Every other test compares against the constants, so a
// renamed wire value would pass them all and still break old clients.
func TestWireValues(t *testing.T) {
	for _, tc := range []struct{ name, got, want string }{
		{"CodeNotFound", CodeNotFound, "not_found"},
		{"CodeInvalidSpec", CodeInvalidSpec, "invalid_spec"},
		{"CodeShuttingDown", CodeShuttingDown, "shutting_down"},
		{"CodeRemoteDegraded", CodeRemoteDegraded, "remote_degraded"},
		{"CodeInternal", CodeInternal, "internal"},
		{"StateQueued", StateQueued, "queued"},
		{"StateRunning", StateRunning, "running"},
		{"StateDone", StateDone, "done"},
		{"StateFailed", StateFailed, "failed"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %q on the wire, want %q", tc.name, tc.got, tc.want)
		}
	}
}
