package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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

// storeEntry is the on-disk cell format. The outcome is held as its
// JSON: MarshalIndent indents the embedded bytes exactly as it indents
// the outcome they encode, so PutEncoded and Put write the same file.
type storeEntry struct {
	// Version guards the format; bump on incompatible changes.
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Spec    Spec            `json:"spec"`
	Outcome json.RawMessage `json:"outcome"`
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
	return KeyOf(canon), nil
}

// KeyOf returns the content address of a spec's canonical JSON (the bytes
// CanonicalJSON returns), for callers that need those bytes as well.
func KeyOf(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
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

// DecodeStrict decodes exactly one JSON value from r into v, the way a
// spec or a pushed cell crosses a trust boundary: a field v does not
// declare is an error, since it would drop out of the content hash and
// alias another cell, and so is anything after the value but whitespace.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("after the JSON value: %w", err)
	default:
		return errors.New("trailing data after the JSON value")
	}
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
// survives the JSON round trip exactly). Its misses are get's.
func (st *Store) GetKey(key string) (*Outcome, bool, error) {
	var out *Outcome
	if ok, err := st.get(key, &out); !ok {
		return nil, false, err
	}
	return out, true, nil
}

// GetEncoded is GetKey returning the outcome as its compact JSON, which
// for a cell Put wrote is the json.Marshal output of the outcome it
// stored.
func (st *Store) GetEncoded(key string) ([]byte, bool, error) {
	var enc compactJSON
	if ok, err := st.get(key, &enc); !ok {
		return nil, false, err
	}
	return enc, true, nil
}

// get is the one read of a stored cell, behind GetKey and GetEncoded:
// it decodes the cell once, its outcome into outcome (a **Outcome or a
// *compactJSON), and answers only for the current format, an outcome
// that decodes as an Outcome and a spec that passes Validate and hashes
// to key under this code. Any other cell (corrupt, old-format, written
// by older code for a spec now refused or keyed elsewhere, or filed
// under another spec's key) is a miss, not an error: the caller
// recomputes and Put's atomic rename overwrites it.
func (st *Store) get(key string, outcome any) (bool, error) {
	b, ok, err := st.read(key)
	if !ok {
		return false, err
	}
	// The outcome member decodes through the pointer the field holds; a
	// missing or null one leaves the pointee nil.
	entry := struct {
		Version int  `json:"version"`
		Spec    Spec `json:"spec"`
		Outcome any  `json:"outcome"`
	}{Outcome: outcome}
	if json.Unmarshal(b, &entry) != nil || entry.Version != storeVersion || entry.Spec.Validate() != nil {
		return false, nil
	}
	if k, err := Key(entry.Spec); err != nil || k != key {
		return false, nil
	}
	switch o := outcome.(type) {
	case **Outcome:
		return *o != nil, nil
	case *compactJSON:
		// Compacting checks only that the outcome is JSON.
		return *o != nil && decodesAsOutcome(*o), nil
	}
	return false, nil
}

// checkOutcomes recycles the values get decodes into only to check an
// outcome. Whether a decode fails depends on the JSON and the type
// alone, never on what the value already holds, so a recycled value is
// not reset, and decoding into its maps and slices allocates less than
// decoding into a new one.
var checkOutcomes = sync.Pool{New: func() any { return new(Outcome) }}

// decodesAsOutcome reports whether enc decodes as an Outcome.
func decodesAsOutcome(enc []byte) bool {
	o := checkOutcomes.Get().(*Outcome)
	defer checkOutcomes.Put(o)
	return json.Unmarshal(enc, o) == nil
}

// read returns a cell file's bytes; ok is false when there is no cell.
func (st *Store) read(key string) ([]byte, bool, error) {
	b, err := os.ReadFile(st.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("scenario: reading store cell %s: %w", key, err)
	}
	return b, true, nil
}

// compactJSON is a JSON value kept compact: decoding one copies the
// value's json.Compact form into a slice of exactly its length. A null
// leaves it nil.
type compactJSON []byte

// UnmarshalJSON copies data compacted.
func (c *compactJSON) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return err
	}
	*c = make([]byte, buf.Len())
	copy(*c, buf.Bytes())
	return nil
}

// Put persists a spec's outcome. The write is atomic (temp file + rename)
// so a killed sweep never leaves a truncated cell behind — on restart the
// cell either exists complete or reads as a miss. A nil outcome is
// rejected: it would read back as a miss forever.
func (st *Store) Put(s Spec, out *Outcome) error {
	enc, err := json.Marshal(out) // null for a nil outcome, which PutEncoded rejects
	if err != nil {
		return fmt.Errorf("scenario: encoding outcome: %w", err)
	}
	return st.PutEncoded(s, enc)
}

// PutEncoded is Put for an outcome already encoded as JSON (json.Marshal's
// output), writing the cell Put would write for the decoded outcome. A
// missing or null outcome is rejected.
func (st *Store) PutEncoded(s Spec, enc []byte) error {
	key, err := Key(s)
	if err != nil {
		return err
	}
	if len(enc) == 0 || string(enc) == "null" {
		return fmt.Errorf("scenario: store cell %s: nil outcome", key)
	}
	entry := storeEntry{Version: storeVersion, Key: key, Spec: s, Outcome: enc}
	b, err := json.MarshalIndent(entry, "", " ")
	if err != nil {
		return fmt.Errorf("scenario: encoding store cell %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(st.dir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("scenario: writing store cell %s: %w", key, err)
	}
	// Only the failure paths remove the temp file: a rename moves it, and
	// removing it after one costs two failing syscalls. A failed remove
	// leaves a dot file, which listings and GC skip.
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("scenario: writing store cell %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), st.path(key)); err != nil {
		_ = os.Remove(tmp.Name())
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
