package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

// Tracing. Spans are recorded from the benchmark's own code around each
// call into a layer: the client's submit (or the engine's scenario.Run)
// and every backend call the daemon's storage module makes, through
// tracedBackend. The program itself is not instrumented. Spans stay in
// memory and are analysed, and optionally written out, after the window.

// Span name prefixes, one per layer. A span's level orders the layers
// from the caller down: a parent always sits on a lower level.
const (
	spanRequest = "request."         // client submit, by request class
	spanRun     = "run."             // engine scenario.Run, by kind
	spanStorage = "service.storage." // backend calls of the daemon the clients talk to
	spanLeader  = "leader.storage."  // backend calls of the tier leader
)

func spanLevel(name string) int {
	switch {
	case strings.HasPrefix(name, spanStorage):
		return 1
	case strings.HasPrefix(name, spanLeader):
		return 2
	}
	return 0
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the start of the measurement window. Req is the content key of the
// request the call served (empty for key-less calls such as List).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. Within the window tracing alternates off
// and on in slices, starting off, so one run compares traced and untraced
// requests under the same store state and host conditions; a nil tracer
// records nothing.
type tracer struct {
	sliceLen time.Duration
	t0       atomic.Pointer[time.Time] // the window's start; nil outside it

	mu    sync.Mutex
	spans []span
	// calls counts every call in the window by span name, traced slice or
	// not, so the counts are the run's whole work and repeat exactly.
	calls map[string]int64
}

func newTracer(sliceLen time.Duration) *tracer {
	return &tracer{sliceLen: sliceLen, calls: map[string]int64{}}
}

// begin opens the window at t.
func (tr *tracer) begin(t time.Time) { tr.t0.Store(&t) }

// end closes the window: later calls record nothing.
func (tr *tracer) end() { tr.t0.Store(nil) }

// tracedSlice reports whether offset (since the window start) falls in a
// slice that records spans.
func (tr *tracer) tracedSlice(offset time.Duration) bool {
	return offset >= 0 && int64(offset/tr.sliceLen)%2 == 1
}

// on reports whether a call starting at t is recorded.
func (tr *tracer) on(t time.Time) bool {
	if tr == nil {
		return false
	}
	t0 := tr.t0.Load()
	return t0 != nil && tr.tracedSlice(t.Sub(*t0))
}

// record counts a call made in the window and keeps its span when tracing
// is on at its start.
func (tr *tracer) record(name, req string, start, end time.Time) {
	if tr == nil {
		return
	}
	t0 := tr.t0.Load()
	if t0 == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.calls[name]++
	if !tr.tracedSlice(start.Sub(*t0)) {
		return
	}
	tr.spans = append(tr.spans, span{
		ID:    len(tr.spans) + 1,
		Name:  name,
		Start: start.Sub(*t0).Nanoseconds(),
		End:   end.Sub(*t0).Nanoseconds(),
		Req:   req,
	})
}

// callCount is how many calls named name the window made.
func (tr *tracer) callCount(name string) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.calls[name]
}

// collected returns the recorded spans, linked to their parents.
func (tr *tracer) collected() []span {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	link(spans)
	return spans
}

// tracedBackend records a span around every Get, Fetch, Put and List into
// the backend it wraps (no workload calls Len). It always offers Fetch: for a backend without one it does what
// the storage module would do, a Get.
type tracedBackend struct {
	inner  service.Backend
	prefix string
	tr     *tracer
}

func (b *tracedBackend) Name() string { return b.inner.Name() }

func (b *tracedBackend) Get(ctx context.Context, key string) (*scenario.Outcome, bool, error) {
	start := time.Now()
	out, ok, err := b.inner.Get(ctx, key)
	b.tr.record(b.prefix+"get", key, start, time.Now())
	return out, ok, err
}

func (b *tracedBackend) Fetch(ctx context.Context, spec scenario.Spec, key string) (*scenario.Outcome, bool, error) {
	f, ok := b.inner.(service.Fetcher)
	if !ok {
		return b.Get(ctx, key)
	}
	start := time.Now()
	out, ok, err := f.Fetch(ctx, spec, key)
	b.tr.record(b.prefix+"fetch", key, start, time.Now())
	return out, ok, err
}

func (b *tracedBackend) Put(ctx context.Context, spec scenario.Spec, out *scenario.Outcome) error {
	start := time.Now()
	err := b.inner.Put(ctx, spec, out)
	end := time.Now()
	key := ""
	if b.tr.on(start) {
		// Hashing only when the span is kept keeps untraced slices at the
		// cost of an untraced daemon.
		key, _ = scenario.Key(spec)
	}
	b.tr.record(b.prefix+"put", key, start, end)
	return err
}

func (b *tracedBackend) List(ctx context.Context) ([]scenario.CellInfo, error) {
	start := time.Now()
	infos, err := b.inner.List(ctx)
	b.tr.record(b.prefix+"list", "", start, time.Now())
	return infos, err
}

func (b *tracedBackend) Len(ctx context.Context) (int, error) { return b.inner.Len(ctx) }

// tracedTiered is tracedBackend over a RemoteBackend: it also forwards the
// tier statistics the storage module reports and the Close the daemon
// calls on shutdown.
type tracedTiered struct {
	*tracedBackend
	remote *service.RemoteBackend
}

func (b *tracedTiered) TierStats() service.TierStats { return b.remote.TierStats() }

func (b *tracedTiered) Close() error { return b.remote.Close() }

// maxLinkScan bounds how far back link looks among earlier spans of the
// same key. Only the requests in flight can contain a span, and the
// benchmark has at most two clients, so the parent is always among the
// most recent spans of its key.
const maxLinkScan = 64

// link sets every span's parent. A span with a key belongs to a span of
// the same key on the nearest lower level whose interval contains it;
// when two requests for one key overlap, each takes the first such span
// of a given name (first in, first served, as the storage module serves
// them). A key-less List belongs to the Put just before it on its level:
// the storage module lists right after each Put to refresh its footprint.
func link(spans []span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	byKey := map[string][]int{}
	taken := map[int]map[string]bool{} // parent index -> child names it already has
	lastPut := map[int]int{}           // level -> index of its latest Put
	for i := range spans {
		s := &spans[i]
		lvl := spanLevel(s.Name)
		if s.Req == "" {
			if strings.HasSuffix(s.Name, ".list") {
				if p, ok := lastPut[lvl]; ok {
					s.Parent = spans[p].ID
				}
			}
			continue
		}
		cands := byKey[s.Req]
		best, bestLvl, bestTaken := -1, -1, true
		for k := len(cands) - 1; k >= 0 && k >= len(cands)-maxLinkScan; k-- {
			j := cands[k]
			p := spans[j]
			pl := spanLevel(p.Name)
			if pl >= lvl || p.Start > s.Start || p.End < s.End {
				continue
			}
			pTaken := taken[j][s.Name]
			switch {
			case pl > bestLvl,
				pl == bestLvl && bestTaken && !pTaken,
				pl == bestLvl && bestTaken == pTaken: // earlier start wins ties
				best, bestLvl, bestTaken = j, pl, pTaken
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
			if taken[best] == nil {
				taken[best] = map[string]bool{}
			}
			taken[best][s.Name] = true
		}
		byKey[s.Req] = append(byKey[s.Req], i)
		if strings.HasSuffix(s.Name, ".put") {
			lastPut[lvl] = i
		}
	}
}

// spanIndex gives parent/child access over linked spans.
type spanIndex struct {
	spans    []span
	byID     map[int]int
	children map[int][]int // span ID -> indices of its children, by start
}

func newSpanIndex(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, byID: make(map[int]int, len(spans)), children: map[int][]int{}}
	for i, s := range spans {
		ix.byID[s.ID] = i
	}
	for i, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	for id, kids := range ix.children {
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		ix.children[id] = kids
	}
	return ix
}

// selfTime is a span's duration minus the part of it its children cover.
func (ix *spanIndex) selfTime(i int) int64 {
	s := ix.spans[i]
	covered, reach := int64(0), s.Start
	for _, k := range ix.children[s.ID] {
		c := ix.spans[k]
		lo, hi := max(c.Start, reach), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return s.dur() - covered
}

// root returns the index of the top ancestor of span i.
func (ix *spanIndex) root(i int) int {
	for ix.spans[i].Parent != 0 {
		p, ok := ix.byID[ix.spans[i].Parent]
		if !ok {
			break
		}
		i = p
	}
	return i
}

// waits returns, for each request span (level 0) with at least one child,
// the time between its start and its first child's start during which
// the storage module was busy with other requests' backend calls — the
// request's wait for the serialized storage goroutine.
func (ix *spanIndex) waits() map[int]int64 {
	var storage []int // level-1 spans by start
	for i, s := range ix.spans {
		if spanLevel(s.Name) == 1 {
			storage = append(storage, i)
		}
	}
	out := map[int]int64{}
	for i, s := range ix.spans {
		if spanLevel(s.Name) != 0 || len(ix.children[s.ID]) == 0 {
			continue
		}
		first := ix.spans[ix.children[s.ID][0]].Start
		// Storage spans run one at a time, so the ones overlapping
		// [s.Start, first) start after the span that precedes s.Start.
		k := sort.Search(len(storage), func(k int) bool { return ix.spans[storage[k]].Start >= s.Start })
		if k > 0 {
			k--
		}
		var wait int64
		for ; k < len(storage) && ix.spans[storage[k]].Start < first; k++ {
			o := ix.spans[storage[k]]
			if ix.root(storage[k]) == i {
				continue
			}
			lo, hi := max(o.Start, s.Start), min(o.End, first)
			if hi > lo {
				wait += hi - lo
			}
		}
		out[i] = wait
	}
	return out
}

// descendantSelf adds the self time of every descendant of span i to
// parts, keyed by span name.
func (ix *spanIndex) descendantSelf(i int, parts map[string]int64) {
	for _, k := range ix.children[ix.spans[i].ID] {
		parts[ix.spans[k].Name] += ix.selfTime(k)
		ix.descendantSelf(k, parts)
	}
}

// liveMetrics summarises one traced window: how often the daemon called
// its storage backend (over the whole window), how much of the storage
// layer's capacity the requests used, and where request time went (over
// the traced slices, whose total length is tracedTime).
func liveMetrics(tr *tracer, spans []span, tracedTime time.Duration) map[string]float64 {
	ix := newSpanIndex(spans)
	gets := tr.callCount(spanStorage+"get") + tr.callCount(spanStorage+"fetch")
	puts := tr.callCount(spanStorage + "put")
	lists := tr.callCount(spanStorage + "list")
	var busy, reqTime, ownBackend, leader int64
	for i, s := range spans {
		switch spanLevel(s.Name) {
		case 0:
			reqTime += s.dur()
		case 1:
			busy += s.dur()
			if r := ix.root(i); r != i && spanLevel(spans[r].Name) == 0 {
				ownBackend += s.dur()
			}
		case 2:
			if r := ix.root(i); r != i && spanLevel(spans[r].Name) == 0 {
				leader += s.dur()
			}
		}
	}
	var wait int64
	for _, w := range ix.waits() {
		wait += w
	}
	return map[string]float64{
		"service.storage.get_count":     float64(gets),
		"service.storage.put_count":     float64(puts),
		"service.storage.list_count":    float64(lists),
		"service.storage.list_per_put":  ratio(float64(lists), float64(puts)),
		"service.storage.busy_frac":     ratio(float64(busy), float64(tracedTime.Nanoseconds())),
		"service.storage.wait_share":    ratio(float64(wait), float64(reqTime)),
		"service.storage.backend_share": ratio(float64(ownBackend), float64(reqTime)),
		"leader.storage.share":          ratio(float64(leader), float64(reqTime)),
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
