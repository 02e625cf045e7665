package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// deadRemote is a base URL nothing listens on: connections are refused
// instantly, which is the fastest way to exercise the failure paths.
const deadRemote = "http://127.0.0.1:1"

// fakeClock is a hand-advanced clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// TestBreakerTrip: threshold consecutive failures open the breaker;
// successes in between reset the count.
func TestBreakerTrip(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(3, 5*time.Second, clk.now)

	if !b.allow() {
		t.Fatal("fresh breaker refused a call")
	}
	b.failure()
	b.failure()
	b.success() // resets the consecutive count
	b.failure()
	b.failure()
	if b.state() != breakerClosed {
		t.Fatalf("state after interrupted failures = %s, want closed", b.state())
	}
	b.failure()
	if b.state() != breakerOpen {
		t.Fatalf("state after 3 consecutive failures = %s, want open", b.state())
	}
	if b.opens() != 1 {
		t.Errorf("opens = %d, want 1", b.opens())
	}
	if b.allow() {
		t.Error("open breaker admitted a call before cooldown")
	}
}

// TestBreakerHalfOpenProbe: after the cooldown exactly one probe is
// admitted; its failure re-opens the breaker, its success closes it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, 5*time.Second, clk.now)
	b.failure()
	if b.state() != breakerOpen {
		t.Fatalf("state = %s, want open", b.state())
	}

	clk.advance(4 * time.Second)
	if b.allow() {
		t.Fatal("breaker probed before the cooldown elapsed")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.state() != breakerHalfOpen {
		t.Fatalf("state during probe = %s, want half-open", b.state())
	}
	if b.allow() {
		t.Error("second concurrent call admitted during the single probe")
	}

	// Probe fails: straight back to open for another full cooldown.
	b.failure()
	if b.state() != breakerOpen {
		t.Fatalf("state after failed probe = %s, want open", b.state())
	}
	if b.allow() {
		t.Error("re-opened breaker admitted a call immediately")
	}

	// Next probe succeeds: closed, calls flow again.
	clk.advance(5 * time.Second)
	if !b.allow() {
		t.Fatal("breaker refused the second probe")
	}
	b.success()
	if b.state() != breakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.state())
	}
	if !b.allow() || !b.allow() {
		t.Error("closed breaker throttled calls")
	}
}

// TestBreakerDegradedAccounting: time outside the closed state is
// accumulated, including the in-progress interval.
func TestBreakerDegradedAccounting(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(1, time.Second, clk.now)
	b.failure()
	clk.advance(3 * time.Second)
	if got := b.degraded(); got != 3*time.Second {
		t.Errorf("degraded during open = %v, want 3s", got)
	}
	if !b.allow() { // half-open probe
		t.Fatal("probe refused")
	}
	clk.advance(time.Second)
	b.success()
	if got := b.degraded(); got != 4*time.Second {
		t.Errorf("degraded after recovery = %v, want 4s", got)
	}
	clk.advance(time.Hour) // closed time does not accumulate
	if got := b.degraded(); got != 4*time.Second {
		t.Errorf("degraded while closed = %v, want 4s", got)
	}
}

// TestRemoteDownAtStartup: a daemon whose remote never answered a
// single call still serves submits — the breaker trips and the daemon
// runs local-only from the first minute.
func TestRemoteDownAtStartup(t *testing.T) {
	d := startDaemon(t, Config{Remote: deadRemote, RemoteTimeout: 200 * time.Millisecond})
	c := NewClient(d.BaseURL())

	for i := 0; i < 4; i++ {
		st, err := c.Submit(ctx, testSpec(60+float64(i)), true)
		if err != nil {
			t.Fatalf("submit %d with dead remote: %v", i, err)
		}
		if st.State != StateDone {
			t.Fatalf("submit %d state = %s: %s", i, st.State, st.Error)
		}
	}

	sr, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tier := sr.Storage.Tier
	if tier == nil {
		t.Fatal("tiered daemon reports no tier stats")
	}
	if tier.RemoteErrors == 0 {
		t.Error("dead remote produced zero remote_errors")
	}
	// Four consecutive fetch failures are past the default threshold of
	// three: the breaker must have opened (later calls may be probes, so
	// only the transition count is deterministic).
	if tier.BreakerOpens == 0 {
		t.Errorf("breaker never opened: %+v", tier)
	}
}

// TestLeaderDiesMidRun is the headline degraded-mode scenario: a warm
// leader/follower pair loses the leader and the follower keeps serving
// — old keys from its local tier, new keys by simulating itself.
func TestLeaderDiesMidRun(t *testing.T) {
	leader, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Start(); err != nil {
		t.Fatal(err)
	}
	leaderUp := true
	defer func() {
		if leaderUp {
			_ = leader.Stop()
		}
	}()

	follower := startDaemon(t, Config{Remote: leader.BaseURL(), RemoteTimeout: time.Second})
	fc := NewClient(follower.BaseURL())

	// Warm phase: the follower delegates the simulation to the leader.
	specA := testSpec(70)
	st, err := fc.Submit(ctx, specA, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("warm submit state = %s: %s", st.State, st.Error)
	}
	if sims := leader.Queue().Stats().Simulated; sims != 1 {
		t.Errorf("leader simulated %d, want 1 (follower should delegate)", sims)
	}
	if sims := follower.Queue().Stats().Simulated; sims != 0 {
		t.Errorf("follower simulated %d, want 0 (remote hit)", sims)
	}

	// Kill the leader mid-run.
	if err := leader.Stop(); err != nil {
		t.Fatal(err)
	}
	leaderUp = false

	// Old key: still a local hit (write-back from the warm phase).
	st, err = fc.Submit(ctx, specA, true)
	if err != nil {
		t.Fatalf("resubmit after leader death: %v", err)
	}
	if st.State != StateDone || !st.Cached {
		t.Fatalf("resubmit = %+v, want cached done from the local tier", st)
	}

	// New key: the remote fetch fails, the follower simulates itself —
	// the submit still succeeds.
	st, err = fc.Submit(ctx, testSpec(71), true)
	if err != nil {
		t.Fatalf("cold submit after leader death: %v", err)
	}
	if st.State != StateDone {
		t.Fatalf("cold submit state = %s: %s", st.State, st.Error)
	}
	if sims := follower.Queue().Stats().Simulated; sims != 1 {
		t.Errorf("follower simulated %d after leader death, want 1", sims)
	}

	sr, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Storage.Tier == nil || sr.Storage.Tier.RemoteErrors == 0 {
		t.Errorf("follower tier stats show no remote errors after leader death: %+v", sr.Storage.Tier)
	}
}

// TestWriteThroughFailureNeverFailsPut: a Put whose write-through
// cannot reach the remote still succeeds, synchronously and async.
func TestWriteThroughFailureNeverFailsPut(t *testing.T) {
	spec := testSpec(72)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name string
		sync bool
	}{{"sync", true}, {"async", false}} {
		t.Run(mode.name, func(t *testing.T) {
			rb := NewRemoteBackend(NewMemBackend(), NewClient(deadRemote),
				RemoteSyncWrites(mode.sync),
				RemoteTimeout(200*time.Millisecond),
				RemoteRetry(2, time.Millisecond),
				RemoteBreaker(100, time.Hour)) // keep probing: count real errors
			defer func() {
				if err := rb.Close(); err != nil {
					t.Error(err)
				}
			}()

			if err := rb.Put(ctx, spec, out); err != nil {
				t.Fatalf("%s put with dead remote: %v", mode.name, err)
			}
			// The cell is safe in the local tier regardless of the remote.
			key, err := scenario.Key(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := rb.Get(ctx, key)
			if err != nil || !ok || got == nil {
				t.Fatalf("local tier lost the put: ok=%v err=%v", ok, err)
			}
			if mode.sync {
				st := rb.TierStats()
				if st.WriteDropped == 0 || st.RemoteErrors == 0 {
					t.Errorf("sync write-through to dead remote not accounted: %+v", st)
				}
			}
		})
	}
}

// TestTwoTierByteIdentity: an outcome served read-through from the
// leader is byte-identical to a direct in-process scenario.Run, and a
// unique spec costs exactly one simulation across the fleet.
func TestTwoTierByteIdentity(t *testing.T) {
	spec := testSpec(73)
	want, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	leader := startDaemon(t, Config{})
	follower := startDaemon(t, Config{Remote: leader.BaseURL()})
	fc := NewClient(follower.BaseURL())

	st, err := fc.Submit(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("submit state = %s: %s", st.State, st.Error)
	}
	got, err := json.Marshal(st.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantJSON) {
		t.Error("read-through outcome differs from direct scenario.Run")
	}

	if sims := leader.Queue().Stats().Simulated + follower.Queue().Stats().Simulated; sims != 1 {
		t.Errorf("fleet simulated %d for one unique spec, want 1", sims)
	}

	// Resubmit: the write-back made the key a local hit, so the remote
	// counter must not move again.
	sr1, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := fc.Submit(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Errorf("resubmit = %+v, want cached", st2)
	}
	sr2, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr1.Storage.Tier == nil || sr2.Storage.Tier == nil {
		t.Fatal("follower reports no tier stats")
	}
	if sr2.Storage.Tier.RemoteHits != sr1.Storage.Tier.RemoteHits {
		t.Errorf("resubmit went remote again (%d -> %d remote hits); write-back broken",
			sr1.Storage.Tier.RemoteHits, sr2.Storage.Tier.RemoteHits)
	}
	if sr2.Storage.Tier.LocalHits <= sr1.Storage.Tier.LocalHits {
		t.Errorf("resubmit not a local hit: %d -> %d", sr1.Storage.Tier.LocalHits, sr2.Storage.Tier.LocalHits)
	}
}

// TestErrorEnvelopeCodes: the stable machine-readable codes on the
// error envelope, and IsNotFound's code-first matching.
func TestErrorEnvelopeCodes(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())

	_, err := c.Submit(ctx, scenario.Spec{Kind: "warp"}, false)
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("invalid spec error = %T (%v), want *StatusError", err, err)
	}
	if se.Code != http.StatusBadRequest || se.APICode != CodeInvalidSpec {
		t.Errorf("invalid spec -> %d/%q, want 400/%q", se.Code, se.APICode, CodeInvalidSpec)
	}

	_, err = c.Get(ctx, "no-such-key")
	se, ok = err.(*StatusError)
	if !ok {
		t.Fatalf("unknown key error = %T (%v), want *StatusError", err, err)
	}
	if se.Code != http.StatusNotFound || se.APICode != CodeNotFound {
		t.Errorf("unknown key -> %d/%q, want 404/%q", se.Code, se.APICode, CodeNotFound)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound rejected a coded 404")
	}

	// Matching matrix: codes rule; the raw status is only a fallback for
	// pre-code servers.
	if !IsNotFound(&StatusError{Code: 404}) {
		t.Error("IsNotFound rejected a code-less 404")
	}
	if !IsNotFound(&StatusError{Code: 404, APICode: CodeRemoteDegraded}) {
		t.Error("IsNotFound rejected a degraded 404")
	}
	if IsNotFound(&StatusError{Code: 404, APICode: CodeShuttingDown}) {
		t.Error("IsNotFound matched a non-not-found code on a 404")
	}
	if IsNotFound(fmt.Errorf("plain error")) {
		t.Error("IsNotFound matched a non-StatusError")
	}
}

// TestDegradedReadCode: with the breaker open, a miss on the local
// tier is reported as remote_degraded — "not found here, but the fleet
// may have it" — and still satisfies IsNotFound. Classifying the 404
// reads the breaker directly: it never lists the local tier.
func TestDegradedReadCode(t *testing.T) {
	local := &listCounter{MemBackend: NewMemBackend()}
	d := startDaemon(t, Config{Backend: local, Remote: deadRemote, RemoteTimeout: 200 * time.Millisecond})
	c := NewClient(d.BaseURL())

	// Trip the breaker: three submits, three failed remote fetches.
	for i := 0; i < 3; i++ {
		if _, err := c.Submit(ctx, testSpec(50+float64(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	lists := local.lists.Load()
	_, err := c.Get(ctx, "no-such-key")
	if n := local.lists.Load() - lists; n != 0 {
		t.Errorf("404 GET listed the local tier %d times, want 0", n)
	}
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("degraded miss error = %T (%v), want *StatusError", err, err)
	}
	if se.Code != http.StatusNotFound || se.APICode != CodeRemoteDegraded {
		t.Errorf("degraded miss -> %d/%q, want 404/%q", se.Code, se.APICode, CodeRemoteDegraded)
	}
	if !IsNotFound(err) {
		t.Error("IsNotFound rejected a degraded miss")
	}
}

// TestClientWithRetry: transport-level retries are opt-in, bounded, and
// only cover retryable outcomes (5xx), never deterministic 4xx.
func TestClientWithRetry(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(apiError{Error: "transient", Code: CodeInternal})
			return
		}
		_ = json.NewEncoder(w).Encode(ListResponse{})
	}))
	defer srv.Close()

	// Default client: no retries, the first 500 is final.
	if _, err := NewClient(srv.URL).List(ctx); err == nil {
		t.Error("default client retried a 500")
	}

	// Retrying client: two extra attempts clear the two failures.
	calls.Store(0)
	c := NewClient(srv.URL, WithRetry(2, time.Millisecond))
	if _, err := c.List(ctx); err != nil {
		t.Errorf("retrying client failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("retrying client made %d calls, want 3", got)
	}

	// 4xx is deterministic: one call, no retry budget spent.
	var gets atomic.Int64
	srv4 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(apiError{Error: "nope", Code: CodeNotFound})
	}))
	defer srv4.Close()
	if _, err := NewClient(srv4.URL, WithRetry(3, time.Millisecond)).Get(ctx, "k"); !IsNotFound(err) {
		t.Errorf("coded 404 -> %v, want not-found", err)
	}
	if got := gets.Load(); got != 1 {
		t.Errorf("404 retried: %d calls, want 1", got)
	}
}

// TestPushEndpointValidation: the write-through verb is content
// addressed — the URL key must match the spec's content key.
func TestPushEndpointValidation(t *testing.T) {
	d := startDaemon(t, Config{})
	c := NewClient(d.BaseURL())

	spec := testSpec(55)
	out, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(ctx, spec, out); err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Cached {
		t.Errorf("pushed key reads back %+v, want cached done", st)
	}

	// A mismatched key is rejected as an invalid spec.
	body, err := json.Marshal(pushRequest{Spec: spec, Outcome: out})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, d.BaseURL()+"/v1/scenarios/wrongkey", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched push key -> %d, want 400", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != CodeInvalidSpec {
		t.Errorf("mismatched push key code = %q, want %q", apiErr.Code, CodeInvalidSpec)
	}
}
