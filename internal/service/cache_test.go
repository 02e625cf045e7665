package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// outcomeHash is the SHA-256 of an outcome's canonical JSON.
func outcomeHash(t *testing.T, out *scenario.Outcome) [32]byte {
	t.Helper()
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// cacheFixture opens a StoreBackend in a fresh directory and returns it
// with a simulated outcome and a copy of it that differs only in its
// aggregate, to tell a replaced cell from the original.
func cacheFixture(t *testing.T) (b *StoreBackend, out, replaced *scenario.Outcome) {
	t.Helper()
	b, err := OpenStoreBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out, err = scenario.Run(testSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	r := *out
	r.Aggregate = map[string]float64{"replaced": 1}
	return b, out, &r
}

// putKey puts a cell and returns its key.
func putKey(t *testing.T, b Backend, spec scenario.Spec, out *scenario.Outcome) string {
	t.Helper()
	if err := b.Put(ctx, spec, out); err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// encode is json.Marshal of an outcome, failing the test on error.
func encode(t testing.TB, out *scenario.Outcome) []byte {
	t.Helper()
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameBytes reports whether two slices share their first byte: the same
// cached bytes, not an equal copy.
func sameBytes(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestStoreBackendCachedHit: the second read of a key is answered from
// memory (the same bytes, even with the cell file gone), and the bytes
// are the outcome's json.Marshal output, as a fresh read of the cell
// gives them.
func TestStoreBackendCachedHit(t *testing.T) {
	b, out, _ := cacheFixture(t)
	key := putKey(t, b, testSpec(24), out)
	first, ok, err := b.GetEncoded(ctx, key)
	if err != nil || !ok {
		t.Fatalf("first Get: ok=%v err=%v", ok, err)
	}
	second, ok, err := b.GetEncoded(ctx, key)
	if err != nil || !ok {
		t.Fatalf("second Get: ok=%v err=%v", ok, err)
	}
	if !sameBytes(first, second) {
		t.Error("second Get read the cell again instead of serving the cached outcome")
	}
	fresh, ok, err := b.st.GetEncoded(key)
	if err != nil || !ok {
		t.Fatalf("fresh read: ok=%v err=%v", ok, err)
	}
	if want := encode(t, out); !bytes.Equal(second, want) || !bytes.Equal(fresh, want) {
		t.Errorf("cached outcome %d bytes, fresh read %d bytes, want json.Marshal's %d", len(second), len(fresh), len(want))
	}
	if err := os.Remove(filepath.Join(b.st.Dir(), key+".json")); err != nil {
		t.Fatal(err)
	}
	if third, ok, err := b.GetEncoded(ctx, key); err != nil || !ok || !sameBytes(third, first) {
		t.Errorf("cached Get touched the disk: ok=%v err=%v", ok, err)
	}
	// A decoded Get is the caller's own value, never shared.
	a, _, _ := b.Get(ctx, key)
	c, _, _ := b.Get(ctx, key)
	if a == nil || a == c || outcomeHash(t, a) != outcomeHash(t, out) {
		t.Error("decoded Gets share one outcome or differ from the stored one")
	}
}

// TestStoreBackendCacheInvalidation: a Put makes the next Get read the
// new cell from disk.
func TestStoreBackendCacheInvalidation(t *testing.T) {
	b, out, replaced := cacheFixture(t)
	spec := testSpec(24)
	key := putKey(t, b, spec, out)
	if _, ok, err := b.GetEncoded(ctx, key); err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	putKey(t, b, spec, replaced)
	got, ok, err := b.GetEncoded(ctx, key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, encode(t, replaced)) {
		t.Error("Get after Put served the outcome the Put replaced")
	}
}

// TestStoreBackendCacheStaleInsert: a reader that read a cell before a
// Put replaced it cannot insert what it read once the Put has returned.
func TestStoreBackendCacheStaleInsert(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		b, out, replaced := cacheFixture(t)
		key := putKey(t, b, testSpec(24), out)
		// The reader's half of Get, split around the Put.
		_, gen, ok := b.cache.get(key)
		if ok {
			t.Fatal("key cached before any Get")
		}
		old, ok, err := b.st.GetEncoded(key)
		if err != nil || !ok {
			t.Fatalf("reading the cell: ok=%v err=%v", ok, err)
		}
		putKey(t, b, testSpec(24), replaced)
		b.cache.add(key, old, gen)
		if _, _, ok := b.cache.get(key); ok {
			t.Error("a read racing a Put inserted the cell it read")
		}
	})
}

// TestStoreBackendCacheConcurrent: reads of one hot key, which also read
// every byte they are served, run beside Puts that alternate its
// outcome. After each Put the key serves the new outcome, whatever the
// readers had in flight.
func TestStoreBackendCacheConcurrent(t *testing.T) {
	b, out, replaced := cacheFixture(t)
	hotSpec := testSpec(24)
	hot := putKey(t, b, hotSpec, out)
	want := [2][]byte{encode(t, out), encode(t, replaced)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, ok, err := b.GetEncoded(ctx, hot)
				if err != nil {
					t.Errorf("reader Get: %v", err)
					return
				}
				if ok && !bytes.Equal(got, want[0]) && !bytes.Equal(got, want[1]) {
					t.Error("reader served bytes of neither outcome")
					return
				}
			}
		}()
	}

	for i := 0; i < 100; i++ {
		putKey(t, b, hotSpec, []*scenario.Outcome{out, replaced}[i%2])
		got, ok, err := b.GetEncoded(ctx, hot)
		if err != nil || !ok {
			t.Fatalf("round %d: Get after Put: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, want[i%2]) {
			t.Fatalf("round %d: Get after Put served the outcome the Put replaced", i)
		}
	}
}

// sizedOutcome is an outcome whose compact JSON is n bytes long.
func sizedOutcome(t *testing.T, n int) *scenario.Outcome {
	t.Helper()
	out := &scenario.Outcome{Kind: scenario.KindSingle, Units: []scenario.Unit{{}}}
	out.Units[0].Name = strings.Repeat("x", n-len(encode(t, out)))
	return out
}

// TestOutcomeCacheHoldsWorkingSet: a campaign's working set that a daemon
// serves again stays in memory once each cell has been read. The set is
// 1024 cells holding about 1.3 MiB of outcomes, in the shape of bench/'s
// hit workload: 512 single-server hours of 430 B, 384 Table III cells
// of 2.6 KB and 128 four-node racks of 1 KB. Each is read once, which
// checks its cell; with every cell file then removed, each is served
// again, as the bytes the first read returned.
func TestOutcomeCacheHoldsWorkingSet(t *testing.T) {
	b, err := OpenStoreBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 1024)
	total := 0
	for i := range keys {
		n := 430
		switch {
		case i >= 896:
			n = 1000
		case i >= 512:
			n = 2600
		}
		spec := testSpec(24)
		spec.Name = fmt.Sprintf("cell-%04d", i)
		keys[i] = putKey(t, b, spec, sizedOutcome(t, n))
		total += n
	}
	first := make([][]byte, len(keys))
	for i, key := range keys {
		enc, ok, err := b.GetEncoded(ctx, key)
		if err != nil || !ok {
			t.Fatalf("first read of cell %d: ok=%v err=%v", i, ok, err)
		}
		first[i] = enc
	}
	for _, key := range keys {
		if err := os.Remove(filepath.Join(b.st.Dir(), key+".json")); err != nil {
			t.Fatal(err)
		}
	}
	missed := 0
	for i, key := range keys {
		if enc, ok, err := b.GetEncoded(ctx, key); err != nil || !ok || !sameBytes(enc, first[i]) {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("%d of %d cells (%d outcome bytes in all) were not served from memory", missed, len(keys), total)
	}
}

// TestOutcomeCacheBudget: the cached bytes never exceed CacheBytes, the
// least recently used entry goes first, and an outcome over
// CacheBytes/16 is never cached, in the cache alone and behind a
// StoreBackend.
func TestOutcomeCacheBudget(t *testing.T) {
	var c outcomeCache
	evicted := false
	for i := 0; i < 200; i++ {
		if i == 20 {
			c.get("0") // recently used: outlives "1"
		}
		c.add(fmt.Sprint(i), make([]byte, CacheBytes/40+i%7), c.gen)
		sum := 0
		for el := c.lru.Front(); el != nil; el = el.Next() {
			sum += len(el.Value.(*cacheEntry).enc)
		}
		if c.bytes > CacheBytes || sum != c.bytes || len(c.items) != c.lru.Len() {
			t.Fatalf("after %d adds: %d bytes (entries sum to %d) over %d items (%d in the list), budget %d",
				i+1, c.bytes, sum, len(c.items), c.lru.Len(), CacheBytes)
		}
		if !evicted && len(c.items) <= i {
			evicted = true
			_, _, ok0 := c.get("0")
			_, _, ok1 := c.get("1")
			if !ok0 || ok1 {
				t.Errorf("first eviction: key 0 cached=%v, key 1 cached=%v; want the least recently used (1) gone", ok0, ok1)
			}
		}
	}
	if !evicted {
		t.Fatal("200 adds never filled the budget")
	}
	if _, _, ok := c.get("199"); !ok {
		t.Error("the newest entry was evicted")
	}
	c.add("edge", make([]byte, CacheBytes/16), c.gen)
	c.add("oversize", make([]byte, CacheBytes/16+1), c.gen)
	if _, _, ok := c.get("edge"); !ok {
		t.Error("an outcome of exactly CacheBytes/16 was not cached")
	}
	if _, _, ok := c.get("oversize"); ok {
		t.Error("an oversize outcome was cached")
	}

	b, _, _ := cacheFixture(t)
	big := &scenario.Outcome{Kind: scenario.KindSingle, Units: []scenario.Unit{{
		Name:   "big",
		Series: trace.Set{{Name: "s", T: make([]float64, CacheBytes/16), V: make([]float64, CacheBytes/16)}},
	}}}
	key := putKey(t, b, testSpec(24), big)
	first, ok, err := b.GetEncoded(ctx, key)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if second, _, _ := b.GetEncoded(ctx, key); sameBytes(second, first) {
		t.Error("an oversize outcome was served from the cache")
	}
	if b.cache.bytes != 0 {
		t.Errorf("cache holds %d bytes after reading only an oversize outcome", b.cache.bytes)
	}
}
