package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/scenario"
)

// wrongKey is a content key no spec hashes to.
const wrongKey = "0123abcd"

// FuzzPush fuzzes the push verb's trust boundary, PUT
// /v1/scenarios/{key}, through the route tables of a disk daemon and an
// in-memory daemon in process (a handler panic would otherwise be
// recovered by net/http and hidden). The URL key is the body's content
// key whenever the body decodes and its spec validates, so the fuzzer
// reaches the accepting path, unless useWrongKey asks for a key no spec
// hashes to. Every push answers 200 or 400, a 400 says invalid_spec, a
// body that is not exactly one JSON value (a valid cell with data after
// it, say) is never accepted, and after a 200 a GET of the key answers
// done and cached with the pushed outcome's canonical bytes: the
// json.Marshal output of the decoded body's outcome, which differs from
// the pushed bytes when, for example, a series is null.
func FuzzPush(f *testing.F) {
	spec := testSpec(24)
	spec.Duration, spec.Record = 10, true
	out, err := scenario.Run(spec)
	if err != nil {
		f.Fatal(err)
	}
	cell, err := json.Marshal(pushRequest{Spec: spec, Outcome: out})
	if err != nil {
		f.Fatal(err)
	}
	specOnly, err := json.Marshal(pushRequest{Spec: spec})
	if err != nil {
		f.Fatal(err)
	}
	nullSeries := bytes.Replace(cell, []byte(`"series":[{`), []byte(`"series":[null,{`), 1)
	if bytes.Equal(nullSeries, cell) {
		f.Fatal("seed cell records no series")
	}
	f.Add(cell, false)
	f.Add(cell, true)
	f.Add(specOnly, false)
	f.Add(nullSeries, false)
	f.Add(append(cell[:len(cell):len(cell)], ` {"kind":"fleet"} trailing garbage`...), false)

	// The daemons are never started: a push and a poll of a stored key
	// reach storage directly, without queue workers or a socket.
	var muxes []http.Handler
	for _, cfg := range []Config{{StoreDir: f.TempDir()}, {}} {
		d, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		muxes = append(muxes, d.http.srv.Handler)
	}

	f.Fuzz(func(t *testing.T, body []byte, useWrongKey bool) {
		key := wrongKey
		var pr pushRequest
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&pr)
		if !useWrongKey && decodeErr == nil && pr.Spec.Validate() == nil {
			if k, err := scenario.Key(pr.Spec); err == nil {
				key = k
			}
		}
		for _, mux := range muxes {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/scenarios/"+key, bytes.NewReader(body)))
			switch rec.Code {
			case http.StatusBadRequest:
				var ae apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil || ae.Code != CodeInvalidSpec {
					t.Fatalf("400 body %q, want code %s", rec.Body, CodeInvalidSpec)
				}
				continue
			case http.StatusOK:
			default:
				t.Fatalf("push answered %d: %s", rec.Code, rec.Body)
			}
			if key == wrongKey {
				t.Fatalf("push under a wrong key accepted: %s", rec.Body)
			}
			if !json.Valid(body) {
				t.Fatalf("push of a body that is not one JSON value accepted: %s", rec.Body)
			}

			rec = httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/scenarios/"+key, nil))
			var st struct {
				JobStatus
				Outcome json.RawMessage `json:"outcome"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("GET after push = %d %q (%v)", rec.Code, rec.Body, err)
			}
			if st.Key != key || st.State != StateDone || !st.Cached || st.Outcome == nil {
				t.Fatalf("GET after push = %s, want done and cached with an outcome", rec.Body)
			}
			pushed, err := json.Marshal(pr.Outcome)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pushed, st.Outcome) {
				t.Fatalf("served outcome differs from the pushed one:\npushed %s\nserved %s", pushed, st.Outcome)
			}
		}
	})
}

// FuzzSubmitBody fuzzes the submit verb's trust boundary, POST
// /v1/scenarios, where a body whose hash names a stored cell is answered
// from the cell without a decode. It drives the route tables of a disk
// daemon and an in-memory daemon, never started (so a miss answers 503
// from the stopped queue), each holding the same few cells, and the
// disk daemon also cells that older code or a misplaced copy could have
// left: a cell for a spec Validate refuses, the cells of staleBodies and
// a misfiled cell (misfiledBody). Every body must get the status and the
// reply bytes, API code included, that submitReference computes for it
// by the decoding path, which looks up only the cells Put wrote. The
// seeds are the stored specs' canonical bodies, answered from their
// cells; the same specs re-indented or with their fields reordered,
// which decode to stored specs; trailing data and an unknown field,
// which are 400s; the canonical body of a spec no daemon holds, a miss;
// and the bodies that hash to the disk daemon's other cells, which no
// lookup answers: the refused spec, the stale bodies and the misfiled
// spec.
func FuzzSubmitBody(f *testing.F) {
	recorded := testSpec(25)
	recorded.Duration, recorded.Record = 10, true
	short := testSpec(26)
	short.Duration = 10
	unstored := testSpec(27)
	unstored.Duration = 10
	misfiled := testSpec(28)
	misfiled.Duration = 10
	refused := short
	refused.Duration = -1

	dir := f.TempDir()
	var muxes []http.Handler
	var daemons []*Daemon
	for _, cfg := range []Config{{StoreDir: dir}, {}} {
		d, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		muxes = append(muxes, d.http.srv.Handler)
		daemons = append(daemons, d)
	}
	cells := make(map[string][]byte)
	for _, spec := range []scenario.Spec{recorded, short} {
		out, err := scenario.Run(spec)
		if err != nil {
			f.Fatal(err)
		}
		enc := encode(f, out)
		for _, d := range daemons {
			if err := d.storage.Put(ctx, spec, enc); err != nil {
				f.Fatal(err)
			}
		}
		canon := mustCanonical(f, spec)
		cells[scenario.KeyOf(canon)] = enc

		var members map[string]json.RawMessage
		if err := json.Unmarshal(canon, &members); err != nil {
			f.Fatal(err)
		}
		reordered, err := json.Marshal(members) // members sorted by name
		if err != nil {
			f.Fatal(err)
		}
		if bytes.Equal(reordered, canon) {
			f.Fatal("sorting the members left the canonical body as it was")
		}
		f.Add(canon)
		f.Add(indentBody(f, canon))
		f.Add(reordered)
		f.Add(append(canon[:len(canon):len(canon)], ` {}`...))
		f.Add(append([]byte(`{"bogus":1,`), canon[1:]...))
	}
	enc := cells[mustKey(f, short)]
	if err := daemons[0].storage.Put(ctx, refused, enc); err != nil {
		f.Fatal(err)
	}
	for _, body := range append(staleBodies(f, dir, short, enc), mustCanonical(f, refused)) {
		f.Add(body)
	}
	f.Add(mustCanonical(f, unstored))
	f.Add(misfiledBody(f, dir, short, misfiled))

	f.Fuzz(func(t *testing.T, body []byte) {
		status, want := submitReference(body, cells)
		for _, mux := range muxes {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios", bytes.NewReader(body)))
			if rec.Code != status || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("submit of %q answered %d\n%.300s\nwant %d\n%.300s", body, rec.Code, rec.Body, status, want)
			}
		}
	})
}

// mustCanonical is spec's canonical JSON.
func mustCanonical(t testing.TB, spec scenario.Spec) []byte {
	t.Helper()
	canon, err := scenario.CanonicalJSON(spec)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// mustKey is spec's content key.
func mustKey(t testing.TB, spec scenario.Spec) string {
	t.Helper()
	return scenario.KeyOf(mustCanonical(t, spec))
}

// staleBodies writes into the disk store at dir two cells for spec's
// outcome that older code could have written under a spec format that
// has changed since, and returns the bodies that hash to their keys:
// spec's canonical JSON with a member the format lacks, which this code
// refuses to decode, and without the base's Ambient member, which
// decodes to a spec that hashes to another key. Each cell reads as a
// miss, since its stored spec hashes to another key.
func staleBodies(t testing.TB, dir string, spec scenario.Spec, enc []byte) [][]byte {
	t.Helper()
	canon := mustCanonical(t, spec)
	moved := regexp.MustCompile(`"Ambient":[^,]*,`).ReplaceAll(canon, nil)
	if bytes.Equal(moved, canon) {
		t.Fatal("the canonical body holds no Ambient member")
	}
	bodies := [][]byte{append([]byte(`{"retired":1,`), canon[1:]...), moved}
	for _, body := range bodies {
		key := scenario.KeyOf(body)
		cell, err := json.MarshalIndent(struct {
			Version int             `json:"version"` // the store's cell format
			Key     string          `json:"key"`
			Spec    json.RawMessage `json:"spec"`
			Outcome json.RawMessage `json:"outcome"`
		}{1, key, body, enc}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), cell, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return bodies
}

// misfiledBody copies the disk store at dir's cell for spec under the key
// of another spec, to, as a cell misplaced by hand or by a tool could
// be, and returns to's canonical body, which hashes to that key. The
// cell reads as a miss, since its stored spec hashes to another key.
func misfiledBody(t testing.TB, dir string, spec, to scenario.Spec) []byte {
	t.Helper()
	cell, err := os.ReadFile(filepath.Join(dir, mustKey(t, spec)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	body := mustCanonical(t, to)
	if err := os.WriteFile(filepath.Join(dir, scenario.KeyOf(body)+".json"), cell, 0o644); err != nil {
		t.Fatal(err)
	}
	return body
}

// submitReference is the reply a submit body gets by the decoding path,
// DecodeStrict, Validate, Key and a lookup of the stored cells (encoded
// outcomes by key), on a daemon whose queue never started: its status
// and its bytes.
func submitReference(body []byte, cells map[string][]byte) (int, []byte) {
	fail := func(status int, code, msg string) (int, []byte) {
		b, _ := json.Marshal(apiError{Error: msg, Code: code}) // strings: cannot fail
		return status, append(b, '\n')
	}
	var spec scenario.Spec
	if err := scenario.DecodeStrict(bytes.NewReader(body), &spec); err != nil {
		return fail(http.StatusBadRequest, CodeInvalidSpec, "decoding spec: "+err.Error())
	}
	if err := spec.Validate(); err != nil {
		return fail(http.StatusBadRequest, CodeInvalidSpec, err.Error())
	}
	key, err := scenario.Key(spec)
	if err != nil {
		return fail(http.StatusBadRequest, CodeInvalidSpec, err.Error())
	}
	enc, ok := cells[key]
	if !ok {
		return fail(http.StatusServiceUnavailable, CodeShuttingDown, ErrStopped.Error())
	}
	b, _ := json.Marshal(struct { // an encoded outcome is valid JSON: cannot fail
		JobStatus
		Outcome json.RawMessage `json:"outcome"`
	}{JobStatus{Key: key, State: StateDone, Cached: true}, enc})
	return http.StatusOK, append(b, '\n')
}
