package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

// The workloads. Every input is generated from the seed; the program only
// ever sees the generated specs. The three service workloads self-host
// their daemon(s) in this process and drive them over loopback HTTP from
// two closed-loop clients (the host has two cores); the engine workload
// calls scenario.Run directly.

// workloadDef is one benchmark workload.
type workloadDef struct {
	name  string
	setup func(cfg *config, dir string, tr *tracer) (target, error)
	// opsPerSec sizes the fixed work: a run of --seconds S performs
	// opsPerSec × S operations. The rates are frozen: they are what the
	// commit that introduced the benchmark sustained on a two-vCPU KVM
	// guest, so there a run took about S seconds; a faster commit finishes
	// the same work sooner.
	opsPerSec float64
}

var workloads = []workloadDef{
	{"hit", setupHit, 4000},
	{"churn", setupChurn, 2250},
	{"tier", setupTier, 3500},
	{"engine", setupEngine, 290},
}

// perClient is how many operations each of clients makes in a run of ops.
func perClient(ops, clients int) int { return max(1, ops/clients) }

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Workload sizes at scale 1. The traffic shape (working-set sizes, the
// kind mix, Zipf popularity, the fresh shares) is an assumption, not a
// measured trace; README.md says what each value stands for.
const (
	numClients = 2

	// hit: a mixed-size working set, read with skewed popularity.
	hitSingles = 512
	hitBatches = 384
	hitFleets  = 128
	zipfS      = 1.1

	// churn: a uniform working set beside fresh submits.
	churnCells = 1000
	// tier: the follower's pre-filled local tier; fresh fleets go to the
	// leader.
	tierCells = 256

	// One request in every is fresh: a never-seen spec.
	churnFreshEvery = 100
	tierFreshEvery  = 40

	// sampleSize is how many of client 0's replies the traced run keeps
	// for the replay probes.
	sampleSize = 256
)

// scaled sizes a population for the smoke tests' small runs.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// request is one planned submit.
type request struct {
	spec  scenario.Spec
	key   string
	fresh bool
}

// cell is a spec with its outcome, as the replay probes consume them.
type cell struct {
	spec scenario.Spec
	out  *scenario.Outcome
}

// target is a set-up workload, ready for its measurement window.
type target interface {
	// numClients is how many closed-loop clients the window runs.
	numClients() int
	op(c, seq int) (time.Duration, bool, error)
	// check validates the run's outputs as a whole after the window and
	// returns what failed.
	check() []string
	// layers adds the per-layer counters of the window; check runs first.
	layers(m map[string]float64)
	// sample returns the cells the replay probes time.
	sample() []cell
	stop() error
}

// --- spec builders ---------------------------------------------------------

func singleSpec(name string, seed int64, dur units.Seconds) scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindSingle,
		Name:     name,
		Duration: dur,
		Jobs: []scenario.JobSpec{{
			Workload: scenario.FactoryRef{Name: "noisy-square", Seed: seed,
				Params: scenario.Params{"period": 600, "sigma": 0.04}},
			Policy:    scenario.FactoryRef{Name: "full"},
			WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200},
		}},
	}
}

// batchSpec is the Table III comparison: the five solutions on one
// spiky noisy square wave at a 33 °C inlet.
func batchSpec(name string, seed int64, dur units.Seconds) scenario.Spec {
	base := sim.Default()
	base.Ambient = 33
	trace := scenario.FactoryRef{Name: "table3", Seed: seed, Params: scenario.Params{
		"period": 600, "sigma": 0.04, "spike_len": 30, "duration": float64(dur)}}
	policies := []scenario.FactoryRef{
		{Name: "none"}, {Name: "ecoord"},
		{Name: "rcoord", Params: scenario.Params{"ref_temp": 75}},
		{Name: "atref"}, {Name: "full"},
	}
	jobs := make([]scenario.JobSpec, len(policies))
	for i, p := range policies {
		jobs[i] = scenario.JobSpec{Workload: trace, Policy: p, WarmStart: &sim.WarmPoint{Util: 0.1, Fan: 1200}}
	}
	return scenario.Spec{Kind: scenario.KindBatch, Name: name, Base: &base, Duration: dur, Jobs: jobs}
}

func fleetSpec(name string, seed int64, nodes int, dur units.Seconds, recirc units.KPerW) scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindFleet,
		Name:     name,
		Duration: dur,
		Fleet:    &scenario.FleetSpec{Size: nodes, Seed: seed, Recirc: recirc},
	}
}

func fleetCoordSpec(name string, seed int64) scenario.Spec {
	return scenario.Spec{
		Kind:     scenario.KindFleetCoord,
		Name:     name,
		Duration: 900,
		Fleet:    &scenario.FleetSpec{Size: 8, Seed: seed, Recirc: 0.03},
		Params:   scenario.Params{"power_budget_w": 1100},
	}
}

// votingSpec is one fault-campaign cell: a single full-stack server with
// its sensor stuck for half the run, sensed through the three-replica
// voting array.
func votingSpec(name string, seed int64) (scenario.Spec, error) {
	target := scenario.FaultTarget{Name: name, Spec: singleSpec(name, seed, 3600)}
	return scenario.FaultCellSpec(target, scenario.FaultStuck, 1, seed, scenario.DefaultVoting())
}

func keyed(spec scenario.Spec, fresh bool) (request, error) {
	key, err := scenario.Key(spec)
	if err != nil {
		return request{}, err
	}
	return request{spec: spec, key: key, fresh: fresh}, nil
}

// hitCells is the hit workload's working set: full-stack hours, Table III
// half-hours and four-node racks, so outcomes of several sizes pass
// through encode and decode.
func hitCells(seed int64, scale float64) ([]request, error) {
	var cells []request
	add := func(n int, build func(name string, s int64) scenario.Spec) error {
		for i := 0; i < n; i++ {
			idx := int64(len(cells))
			r, err := keyed(build(fmt.Sprintf("hit-s%d-%04d", seed, idx), stats.SubSeed(seed, idx)), false)
			if err != nil {
				return err
			}
			cells = append(cells, r)
		}
		return nil
	}
	if err := add(scaled(hitSingles, scale), func(name string, s int64) scenario.Spec {
		return singleSpec(name, s, 3600)
	}); err != nil {
		return nil, err
	}
	if err := add(scaled(hitBatches, scale), func(name string, s int64) scenario.Spec {
		return batchSpec(name, s, 1800)
	}); err != nil {
		return nil, err
	}
	if err := add(scaled(hitFleets, scale), func(name string, s int64) scenario.Spec {
		return fleetSpec(name, s, 4, 900, 0)
	}); err != nil {
		return nil, err
	}
	return cells, nil
}

// singleCells is a working set of n full-stack servers of one horizon.
func singleCells(prefix string, seed int64, n int, dur units.Seconds) ([]request, error) {
	cells := make([]request, n)
	for i := range cells {
		r, err := keyed(singleSpec(fmt.Sprintf("%s-s%d-%04d", prefix, seed, i), stats.SubSeed(seed, int64(i)), dur), false)
		if err != nil {
			return nil, err
		}
		cells[i] = r
	}
	return cells, nil
}

// clientRand is client c's private random stream.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(stats.SubSeed(seed, int64(1000+c))))
}

// freshSeed is the engine seed of client c's seq-th request when fresh.
func freshSeed(seed int64, c, seq int) int64 {
	return stats.SubSeed(stats.SubSeed(seed, int64(2000+c)), int64(seq))
}

// A plan returns client c's seq-th request. Each client draws from its
// own seeded stream and calls its plan from one goroutine, in order, so
// the request sequence is a function of the seed alone.
type plan func(c, seq int) (request, error)

// hitPlan draws every request from the working set with Zipf popularity.
// The popularity ranks deal the kinds out in the working set's
// proportions, so every seed serves the same mix of outcome sizes at
// every popularity; the seed picks which cell of a kind takes each rank.
func hitPlan(seed int64, cells []request) plan {
	rng := rand.New(rand.NewSource(stats.SubSeed(seed, 7)))
	var kinds []string
	byKind := map[string][]int{}
	for i, c := range cells {
		if byKind[c.spec.Kind] == nil {
			kinds = append(kinds, c.spec.Kind)
		}
		byKind[c.spec.Kind] = append(byKind[c.spec.Kind], i)
	}
	for _, k := range kinds {
		idx := byKind[k]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	}
	// Rank r goes to the kind furthest behind its share of ranks 0..r.
	order := make([]int, len(cells))
	next := map[string]int{}
	for r := range order {
		best, most := "", math.Inf(-1)
		for _, k := range kinds {
			if d := float64(len(byKind[k]))*float64(r+1)/float64(len(cells)) - float64(next[k]); d > most {
				best, most = k, d
			}
		}
		order[r] = byKind[best][next[best]]
		next[best]++
	}
	zipfs := make([]*rand.Zipf, numClients)
	for c := range zipfs {
		zipfs[c] = rand.NewZipf(clientRand(seed, c), zipfS, 1, uint64(len(cells)-1))
	}
	return func(c, _ int) (request, error) {
		return cells[order[zipfs[c].Uint64()]], nil
	}
}

// mixPlan makes request seq of each client a never-seen spec from fresh
// when seq%every == every-1 — a fixed schedule, so every commit sends the
// same fresh specs at the same places — and draws the others uniformly
// from the working set.
func mixPlan(seed int64, cells []request, every int, fresh func(c, seq int) scenario.Spec) plan {
	rngs := make([]*rand.Rand, numClients)
	for c := range rngs {
		rngs[c] = clientRand(seed, c)
	}
	return func(c, seq int) (request, error) {
		if seq%every == every-1 {
			return keyed(fresh(c, seq), true)
		}
		return cells[rngs[c].Intn(len(cells))], nil
	}
}

// freshCount is how many fresh requests a mixPlan sends when each client
// makes perClient requests.
func freshCount(perClient, every int) int { return numClients * (perClient / every) }

// churnPlan's fresh specs are five-minute servers, the working set's shape.
func churnPlan(seed int64, cells []request) plan {
	return mixPlan(seed, cells, churnFreshEvery, func(c, seq int) scenario.Spec {
		return singleSpec(fmt.Sprintf("churn-s%d-c%d-%06d", seed, c, seq), freshSeed(seed, c, seq), 300)
	})
}

// tierPlan's fresh specs are eight-node racks for the leader to simulate.
func tierPlan(seed int64, cells []request) plan {
	return mixPlan(seed, cells, tierFreshEvery, func(c, seq int) scenario.Spec {
		return fleetSpec(fmt.Sprintf("tier-s%d-c%d-%06d", seed, c, seq), freshSeed(seed, c, seq), 8, 900, 0.01)
	})
}

// outcomeHash is the SHA-256 of an outcome's canonical JSON.
func outcomeHash(out *scenario.Outcome) ([32]byte, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encoding outcome: %w", err)
	}
	return sha256.Sum256(b), nil
}

// prefill simulates every cell and writes it into a fresh store at dir
// (two goroutines, one per core), returning each cell's outcome hash.
func prefill(dir string, cells []request) (map[string][32]byte, error) {
	st, err := scenario.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	hashes := make([][32]byte, len(cells))
	err = sim.ParallelFor(len(cells), numClients, func(i int) {
		// ParallelFor has no error path; failures surface as a zero hash.
		spec := cells[i].spec
		spec.Workers = 1
		out, err := scenario.Run(spec)
		if err != nil {
			return
		}
		if err := st.Put(spec, out); err != nil {
			return
		}
		if h, err := outcomeHash(out); err == nil {
			hashes[i] = h
		}
	})
	if err != nil {
		return nil, err
	}
	want := make(map[string][32]byte, len(cells))
	for i, c := range cells {
		if hashes[i] == ([32]byte{}) {
			return nil, fmt.Errorf("pre-filling %s (%s) failed", c.spec.Name, c.key)
		}
		want[c.key] = hashes[i]
	}
	return want, nil
}

// startDaemon builds and starts a daemon.
func startDaemon(cfg service.Config) (*service.Daemon, error) {
	d, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// storeBackend opens the on-disk backend at dir, wrapped for tracing when
// tr is set.
func storeBackend(dir string, tr *tracer) (service.Backend, error) {
	b, err := service.OpenStoreBackend(dir)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return b, nil
	}
	return &tracedBackend{inner: b, prefix: spanStorage, tr: tr}, nil
}

// --- service workloads -----------------------------------------------------

// svcTarget drives a daemon with closed-loop clients and checks every
// reply: a warm key must return exactly its pre-filled outcome.
type svcTarget struct {
	front   *service.Daemon // the daemon the clients submit to
	leader  *service.Daemon // tier only
	clients []*service.Client
	plan    plan
	want    map[string][32]byte
	// freshWant is the fixed number of fresh specs the window sends.
	freshWant int
	tr        *tracer
	// verdict checks the window's queue counters (deltas) and fresh
	// replies against what the workload must do.
	verdict func(front, leader service.QueueStats, fresh []freshReply) []string

	before, after counters

	mu      sync.Mutex
	fresh   []freshReply
	sampled []cell
}

// freshReply is a fresh spec and the hash of the outcome it came back
// with. Fresh specs are unique by construction (their names carry the
// client and sequence number).
type freshReply struct {
	key  string
	spec scenario.Spec
	hash [32]byte
}

// counters are the daemons' /v1/stats snapshots.
type counters struct {
	front, leader service.StatsResponse
}

func newSvcTarget(front, leader *service.Daemon, want map[string][32]byte, tr *tracer) *svcTarget {
	t := &svcTarget{front: front, leader: leader, want: want, tr: tr}
	for c := 0; c < numClients; c++ {
		t.clients = append(t.clients, service.NewClient(front.BaseURL()))
	}
	return t
}

// start snapshots the counters the window is measured against.
func (t *svcTarget) start() (*svcTarget, error) {
	var err error
	if t.before, err = t.stats(); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *svcTarget) stats() (counters, error) {
	var cs counters
	var err error
	ctx := context.Background()
	if cs.front, err = t.clients[0].Stats(ctx); err != nil {
		return cs, err
	}
	if t.leader != nil {
		if cs.leader, err = service.NewClient(t.leader.BaseURL()).Stats(ctx); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

func (t *svcTarget) numClients() int { return numClients }

func (t *svcTarget) op(c, seq int) (time.Duration, bool, error) {
	r, err := t.plan(c, seq)
	if err != nil {
		return 0, false, err
	}
	class := "warm"
	if r.fresh {
		class = "fresh"
	}
	start := time.Now()
	st, err := t.clients[c].Submit(context.Background(), r.spec, true)
	end := time.Now()
	t.tr.record(spanRequest+class, r.key, start, end)
	lat := end.Sub(start)
	if err != nil {
		return lat, r.fresh, err
	}
	return lat, r.fresh, t.verify(c, seq, r, st)
}

// verify checks one reply.
func (t *svcTarget) verify(c, seq int, r request, st service.JobStatus) error {
	if st.State != service.StateDone || st.Outcome == nil {
		return fmt.Errorf("%s: state %q, error %q", r.key, st.State, st.Error)
	}
	if st.Key != r.key {
		return fmt.Errorf("reply key %s for spec key %s", st.Key, r.key)
	}
	h, err := outcomeHash(st.Outcome)
	if err != nil {
		return err
	}
	if !r.fresh {
		if want, ok := t.want[r.key]; !ok || want != h {
			return fmt.Errorf("%s: outcome differs from the pre-filled cell", r.key)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.fresh {
		t.fresh = append(t.fresh, freshReply{key: r.key, spec: r.spec, hash: h})
	}
	if c == 0 && seq < sampleSize {
		t.sampled = append(t.sampled, cell{spec: r.spec, out: st.Outcome})
	}
	return nil
}

func (t *svcTarget) sample() []cell {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]cell(nil), t.sampled...)
}

func (t *svcTarget) stop() error {
	err := t.front.Stop()
	if t.leader != nil {
		if lerr := t.leader.Stop(); err == nil {
			err = lerr
		}
	}
	return err
}

// queueDelta is a's counters minus b's.
func queueDelta(a, b service.QueueStats) service.QueueStats {
	return service.QueueStats{
		Submitted: a.Submitted - b.Submitted,
		CacheHits: a.CacheHits - b.CacheHits,
		Coalesced: a.Coalesced - b.Coalesced,
		Simulated: a.Simulated - b.Simulated,
		Failed:    a.Failed - b.Failed,
	}
}

func (t *svcTarget) check() []string {
	var err error
	if t.after, err = t.stats(); err != nil {
		return []string{fmt.Sprintf("reading daemon stats: %v", err)}
	}
	t.mu.Lock()
	fresh := t.fresh
	t.mu.Unlock()
	var fails []string
	if len(fresh) != t.freshWant {
		fails = append(fails, fmt.Sprintf("%d fresh specs served, want the fixed %d", len(fresh), t.freshWant))
	}
	return append(fails, t.verdict(queueDelta(t.after.front.Queue, t.before.front.Queue),
		queueDelta(t.after.leader.Queue, t.before.leader.Queue), fresh)...)
}

// layers reports the window's queue and storage counters; check must have
// run.
func (t *svcTarget) layers(m map[string]float64) { counterMetrics(m, t.before, t.after) }

// counterMetrics reports the daemons' queue and storage counters over a
// window: the deltas of their /v1/stats between before and after.
func counterMetrics(m map[string]float64, before, after counters) {
	front := queueDelta(after.front.Queue, before.front.Queue)
	leader := queueDelta(after.leader.Queue, before.leader.Queue)
	m["service.queue.submitted"] = float64(front.Submitted)
	m["service.queue.cache_hits"] = float64(front.CacheHits)
	m["service.queue.coalesced"] = float64(front.Coalesced)
	m["service.queue.simulated"] = float64(front.Simulated + leader.Simulated)
	s0, s1 := before.front.Storage, after.front.Storage
	m["service.storage.hit_ratio"] = ratio(float64(s1.Hits-s0.Hits), float64(s1.Gets-s0.Gets))
	var tier service.TierStats
	if s0.Tier != nil && s1.Tier != nil {
		tier = service.TierStats{
			LocalHits:    s1.Tier.LocalHits - s0.Tier.LocalHits,
			RemoteHits:   s1.Tier.RemoteHits - s0.Tier.RemoteHits,
			RemoteErrors: s1.Tier.RemoteErrors - s0.Tier.RemoteErrors,
		}
	}
	m["service.tier.local_hits"] = float64(tier.LocalHits)
	m["service.tier.remote_hits"] = float64(tier.RemoteHits)
	m["service.tier.remote_errors"] = float64(tier.RemoteErrors)
}

// setupHit: one daemon on a pre-filled disk store; every request is a warm
// hit on a Zipf-popular cell.
func setupHit(cfg *config, dir string, tr *tracer) (target, error) {
	cells, err := hitCells(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	want, err := prefill(dir, cells)
	if err != nil {
		return nil, err
	}
	backend, err := storeBackend(dir, tr)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(service.Config{Backend: backend})
	if err != nil {
		return nil, err
	}
	t := newSvcTarget(d, nil, want, tr)
	t.plan = hitPlan(cfg.seed, cells)
	t.verdict = func(front, _ service.QueueStats, _ []freshReply) []string {
		if front.Simulated != 0 {
			return []string{fmt.Sprintf("read-only workload simulated %d runs", front.Simulated)}
		}
		return nil
	}
	return t.start()
}

// setupChurn: one daemon on a pre-filled disk store; one request in
// churnFreshEvery is a never-seen spec, the rest are warm and uniform.
func setupChurn(cfg *config, dir string, tr *tracer) (target, error) {
	cells, err := singleCells("churn", cfg.seed, scaled(churnCells, cfg.scale), 300)
	if err != nil {
		return nil, err
	}
	want, err := prefill(dir, cells)
	if err != nil {
		return nil, err
	}
	backend, err := storeBackend(dir, tr)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(service.Config{Backend: backend})
	if err != nil {
		return nil, err
	}
	t := newSvcTarget(d, nil, want, tr)
	t.plan = churnPlan(cfg.seed, cells)
	t.freshWant = freshCount(perClient(cfg.ops, numClients), churnFreshEvery)
	t.verdict = func(front, _ service.QueueStats, fresh []freshReply) []string {
		var fails []string
		if front.Simulated != int64(len(fresh)) {
			fails = append(fails, fmt.Sprintf("simulated %d runs for %d unique fresh specs", front.Simulated, len(fresh)))
		}
		for _, f := range fresh {
			spec := f.spec
			spec.Workers = 1
			out, err := scenario.Run(spec)
			if err != nil {
				fails = append(fails, fmt.Sprintf("direct run of %s: %v", f.key, err))
				continue
			}
			if h, err := outcomeHash(out); err != nil || h != f.hash {
				fails = append(fails, fmt.Sprintf("%s: served outcome differs from a direct scenario.Run", f.key))
			}
		}
		return fails
	}
	return t.start()
}

// setupTier: an in-memory leader and a follower whose disk local tier is
// pre-filled; one request in tierFreshEvery is a fresh rack the follower
// delegates to the leader, the rest are warm local hits.
func setupTier(cfg *config, dir string, tr *tracer) (target, error) {
	cells, err := singleCells("tier", cfg.seed, scaled(tierCells, cfg.scale), 3600)
	if err != nil {
		return nil, err
	}
	want, err := prefill(dir, cells)
	if err != nil {
		return nil, err
	}
	var leaderBackend service.Backend = service.NewMemBackend()
	if tr != nil {
		leaderBackend = &tracedBackend{inner: leaderBackend, prefix: spanLeader, tr: tr}
	}
	leader, err := startDaemon(service.Config{Backend: leaderBackend})
	if err != nil {
		return nil, err
	}
	local, err := service.OpenStoreBackend(dir)
	if err != nil {
		leader.Stop()
		return nil, err
	}
	remote := service.NewRemoteBackend(local, service.NewClient(leader.BaseURL()))
	var backend service.Backend = remote
	if tr != nil {
		backend = &tracedTiered{tracedBackend: &tracedBackend{inner: remote, prefix: spanStorage, tr: tr}, remote: remote}
	}
	follower, err := startDaemon(service.Config{Backend: backend})
	if err != nil {
		remote.Close()
		leader.Stop()
		return nil, err
	}
	t := newSvcTarget(follower, leader, want, tr)
	t.plan = tierPlan(cfg.seed, cells)
	t.freshWant = freshCount(perClient(cfg.ops, numClients), tierFreshEvery)
	t.verdict = func(front, leader service.QueueStats, fresh []freshReply) []string {
		var fails []string
		if front.Simulated != 0 {
			fails = append(fails, fmt.Sprintf("follower simulated %d runs, want 0", front.Simulated))
		}
		if leader.Simulated != int64(len(fresh)) {
			fails = append(fails, fmt.Sprintf("leader simulated %d runs for %d unique fresh specs", leader.Simulated, len(fresh)))
		}
		return fails
	}
	return t.start()
}
