package scenario

import (
	"os"
	"sync"
	"testing"
	"time"
)

// gcFixture populates a store with n cheap cells and staggers their
// mtimes one minute apart (cell i is the i-th oldest), returning the
// keys in age order.
func gcFixture(t *testing.T, st *Store, n int) []string {
	t.Helper()
	keys := make([]string, n)
	base := time.Now().Add(-time.Duration(n+1) * time.Minute)
	for i := 0; i < n; i++ {
		spec := cheapSpec(24 + float64(i))
		out, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(spec, out); err != nil {
			t.Fatal(err)
		}
		key, err := Key(spec)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		mtime := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(st.path(key), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestGCConfigValidate: caps must be non-negative and at least one must
// be set.
func TestGCConfigValidate(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]GCConfig{
		"no caps":         {},
		"negative bytes":  {MaxBytes: -1},
		"negative cells":  {MaxCells: -2},
		"both negative":   {MaxBytes: -1, MaxCells: -1},
		"negative + good": {MaxBytes: -1, MaxCells: 5},
	} {
		if _, err := st.GC(cfg); err == nil {
			t.Errorf("%s: GC accepted %+v", name, cfg)
		}
	}
}

// TestStoreGCMaxCells: eviction removes the oldest cells first and
// reports exactly what it removed.
func TestStoreGCMaxCells(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := gcFixture(t, st, 5)
	res, err := st.GC(GCConfig{MaxCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 3 || res.Remaining != 2 {
		t.Fatalf("evicted %d / remaining %d, want 3 / 2", len(res.Evicted), res.Remaining)
	}
	for i, want := range keys[:3] {
		if res.Evicted[i] != want {
			t.Errorf("eviction order[%d] = %s, want %s (oldest first)", i, res.Evicted[i], want)
		}
	}
	left, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	survivors := map[string]bool{keys[3]: true, keys[4]: true}
	if len(left) != 2 || !survivors[left[0]] || !survivors[left[1]] {
		t.Errorf("survivors = %v, want the two newest cells", left)
	}

	// A second pass under the same cap is a no-op: eviction is
	// deterministic and idempotent.
	res2, err := st.GC(GCConfig{MaxCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Evicted) != 0 || res2.Remaining != 2 {
		t.Errorf("idempotence broken: second pass evicted %d", len(res2.Evicted))
	}

	// Evicted cells read back as ordinary misses.
	if _, ok, err := st.GetKey(keys[0]); err != nil || ok {
		t.Errorf("evicted cell: ok=%v err=%v, want clean miss", ok, err)
	}
}

// TestStoreGCMaxBytes: the byte cap evicts oldest-first until the sum
// fits and accounts the freed bytes.
func TestStoreGCMaxBytes(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := gcFixture(t, st, 4)
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	size := map[string]int64{}
	var total int64
	for _, info := range infos {
		size[info.Key] = info.Size
		total += info.Size
	}
	// Cap to everything minus one byte: exactly the oldest cell must go.
	res, err := st.GC(GCConfig{MaxBytes: total - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 1 || res.Evicted[0] != keys[0] {
		t.Fatalf("evicted %v, want exactly the oldest cell %s", res.Evicted, keys[0])
	}
	if res.BytesFreed != size[keys[0]] {
		t.Errorf("freed %d bytes, want %d", res.BytesFreed, size[keys[0]])
	}
	if res.RemainingBytes != total-size[keys[0]] {
		t.Errorf("remaining %d bytes, want %d", res.RemainingBytes, total-size[keys[0]])
	}
}

// TestStoreGCMtimeTieBreak: cells with identical mtimes evict in key
// order, so two stores holding the same cells trim identically.
func TestStoreGCMtimeTieBreak(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := gcFixture(t, st, 4)
	same := time.Now().Add(-time.Hour)
	for _, key := range keys {
		if err := os.Chtimes(st.path(key), same, same); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.GC(GCConfig{MaxCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evicted) != 3 {
		t.Fatalf("evicted %d, want 3", len(res.Evicted))
	}
	for i := 1; i < len(res.Evicted); i++ {
		if res.Evicted[i-1] >= res.Evicted[i] {
			t.Fatalf("tie-broken eviction not in key order: %v", res.Evicted)
		}
	}
}

// TestStoreConcurrentPutGet: concurrent writers and readers on the same
// key are safe (atomic temp-file + rename) — run under -race, any Get
// sees either a miss or a complete, valid cell.
func TestStoreConcurrentPutGet(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(25)
	out, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := st.Put(spec, out); err != nil {
					errc <- err
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				back, ok, err := st.GetKey(key)
				if err != nil {
					errc <- err
					return
				}
				if ok && len(back.Units) != len(out.Units) {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	back, ok, err := st.GetKey(key)
	if err != nil || !ok {
		t.Fatalf("final Get: ok=%v err=%v", ok, err)
	}
	if len(back.Units) != len(out.Units) {
		t.Error("stored outcome corrupted by concurrent writes")
	}
}

// TestStoreGCWithConcurrentPuts: GC racing ordinary writers neither
// errors nor corrupts surviving cells (run under -race).
func TestStoreGCWithConcurrentPuts(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]Spec, 6)
	outs := make([]*Outcome, len(specs))
	for i := range specs {
		specs[i] = cheapSpec(24 + float64(i))
		out, err := Run(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := st.Put(specs[(w+i)%len(specs)], outs[(w+i)%len(specs)]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := st.GC(GCConfig{MaxCells: 3}); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Whatever survived must read back valid.
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		if _, ok, err := st.GetKey(key); err != nil || !ok {
			t.Errorf("surviving cell %s unreadable: ok=%v err=%v", key, ok, err)
		}
	}
}
