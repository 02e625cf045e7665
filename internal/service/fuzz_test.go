package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
