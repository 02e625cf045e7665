package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is the content-addressed result cache: outcomes persisted as JSON
// on disk, keyed by the SHA-256 hash of the spec's canonical JSON. Two
// specs that describe the same scenario — regardless of how their maps
// were populated or which Workers knob ran them — share one key, so a
// repeated Sweep reads finished cells back instead of recomputing them.
//
// Layout: one file per cell, <dir>/<key>.json, where <key> is the 64-hex
// SHA-256 of the canonical spec. Each file holds the spec alongside the
// outcome, so a store is self-describing (a cell can be re-verified or
// re-run from its own file).
type Store struct {
	dir string
}

// storeEntry is the on-disk cell format.
type storeEntry struct {
	// Version guards the format; bump on incompatible changes.
	Version int      `json:"version"`
	Key     string   `json:"key"`
	Spec    Spec     `json:"spec"`
	Outcome *Outcome `json:"outcome"`
}

// storeVersion is the current cell format.
const storeVersion = 1

// Key returns the spec's content address: the SHA-256 hex digest of its
// canonical JSON. The canonical form is Go's encoding/json output —
// struct fields in declaration order, map keys sorted — with execution
// knobs (Workers) excluded, so the key is stable across processes, map
// iteration orders and concurrency settings, and changes whenever any
// semantic field changes.
func Key(s Spec) (string, error) {
	canon, err := CanonicalJSON(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// CanonicalJSON returns the spec's canonical serialized form (the bytes
// Key hashes).
func CanonicalJSON(s Spec) ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalizing spec: %w", err)
	}
	return b, nil
}

// OpenStore opens (creating if needed) a result store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("scenario: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// path returns the cell file for a key.
func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key+".json")
}

// GetKey looks a precomputed key up. ok is false on a miss; a hit returns
// the stored outcome, bit-identical to the run that produced it (float64
// survives the JSON round trip exactly).
func (st *Store) GetKey(key string) (*Outcome, bool, error) {
	out, _, ok, err := st.GetKeySized(key)
	return out, ok, err
}

// GetKeySized is GetKey that also reports the cell's encoded size in
// bytes, for callers that budget memory by it.
func (st *Store) GetKeySized(key string) (*Outcome, int, bool, error) {
	b, err := os.ReadFile(st.path(key))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("scenario: reading store cell %s: %w", key, err)
	}
	// Decode only what a hit needs: the stored spec is provenance for
	// humans and re-runs, not for the hot lookup path.
	var entry struct {
		Version int      `json:"version"`
		Outcome *Outcome `json:"outcome"`
	}
	if err := json.Unmarshal(b, &entry); err != nil || entry.Version != storeVersion || entry.Outcome == nil {
		// A corrupt, old-format or outcome-less cell is a miss, not an
		// error: the caller recomputes and Put's atomic rename overwrites
		// it.
		return nil, 0, false, nil
	}
	return entry.Outcome, len(b), true, nil
}

// Put persists a spec's outcome. The write is atomic (temp file + rename)
// so a killed sweep never leaves a truncated cell behind — on restart the
// cell either exists complete or reads as a miss. A nil outcome is
// rejected: it would read back as a miss forever.
func (st *Store) Put(s Spec, out *Outcome) error {
	key, err := Key(s)
	if err != nil {
		return err
	}
	if out == nil {
		return fmt.Errorf("scenario: store cell %s: nil outcome", key)
	}
	entry := storeEntry{Version: storeVersion, Key: key, Spec: s, Outcome: out}
	b, err := json.MarshalIndent(entry, "", " ")
	if err != nil {
		return fmt.Errorf("scenario: encoding store cell %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(st.dir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("scenario: writing store cell %s: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("scenario: writing store cell %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("scenario: writing store cell %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), st.path(key)); err != nil {
		return fmt.Errorf("scenario: committing store cell %s: %w", key, err)
	}
	return nil
}

// Len reports how many cells the store currently holds.
func (st *Store) Len() (int, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".") {
			n++
		}
	}
	return n, nil
}

// CellInfo describes one stored cell for inspection listings (store ls):
// enough to see what a cell is without decoding its outcome payload.
type CellInfo struct {
	// Key is the cell's content address (also its filename stem).
	Key string `json:"key"`
	// Kind and Name echo the stored spec.
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Units is the number of per-unit results in the outcome.
	Units int `json:"units"`
	// Version is the cell's on-disk format version; 0 for a cell that
	// does not decode.
	Version int `json:"version"`
	// Size is the cell file's size in bytes.
	Size int64 `json:"size"`
}

// List inspects every cell in the store, sorted by key. Cells written by
// other format versions are still listed (with their stored version) —
// inspection sees what is on disk, unlike GetKey, which treats them as
// misses. A cell that does not decode is listed with Version 0. A cell
// evicted while the listing runs is left out.
func (st *Store) List() ([]CellInfo, error) {
	keys, err := st.Keys()
	if err != nil {
		return nil, err
	}
	infos := make([]CellInfo, 0, len(keys))
	for _, key := range keys {
		b, err := os.ReadFile(st.path(key))
		if os.IsNotExist(err) {
			continue // raced with a concurrent eviction; already gone
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: inspecting store cell %s: %w", key, err)
		}
		info := CellInfo{Key: key, Size: int64(len(b))}
		var probe struct {
			Version int `json:"version"`
			Spec    struct {
				Kind string `json:"kind"`
				Name string `json:"name"`
			} `json:"spec"`
			Outcome struct {
				Units []struct{} `json:"units"`
			} `json:"outcome"`
		}
		if json.Unmarshal(b, &probe) == nil {
			info.Kind, info.Name = probe.Spec.Kind, probe.Spec.Name
			info.Units, info.Version = len(probe.Outcome.Units), probe.Version
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// Keys returns the stored cell keys, sorted.
func (st *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".json") && !strings.HasPrefix(name, ".") {
			keys = append(keys, strings.TrimSuffix(name, ".json"))
		}
	}
	sort.Strings(keys)
	return keys, nil
}
