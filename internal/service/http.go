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
	"strconv"
	"time"

	"repro/internal/scenario"
)

// HTTPServer is the API part. Endpoints:
//
//	POST /v1/scenarios        submit a Spec (JSON body) → JobStatus.
//	                          A spec whose cell is already stored
//	                          answers state=done cached=true with the
//	                          outcome attached — the warm path is one
//	                          round trip. ?wait=1 blocks until done.
//	PUT  /v1/scenarios/{key}  push an already-computed {spec, outcome}
//	                          cell (the tiered write-through verb); the
//	                          key must match the spec's content hash.
//	GET  /v1/scenarios        list stored cells + in-flight jobs
//	                          (mirrors `store ls`).
//	GET  /v1/scenarios/{key}  poll a key: job progress or the stored
//	                          outcome; 404 for unknown keys.
//	GET  /v1/stats            queue/storage/engine accounting.
//
// Error responses carry the apiError envelope: a human-readable `error`
// string (unchanged since PR 9, so old clients keep working) plus a
// stable machine-readable `code` (the Code* constants).
//
// Spec and push bodies are decoded strictly (scenario.DecodeStrict): an
// unknown field or data after the one JSON value is a 400, since a
// typoed field would otherwise silently drop out of the content hash and
// alias a different cell. The one exception is a submit body whose
// SHA-256 names a cell in the local tiers that holds a spec this code
// validates and hashes to the cell's key: the body is that spec in
// canonical form, and the cell answers it without a decode.
type HTTPServer struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// queue and storage are the parts the handlers call into.
	queue   *Queue
	storage *Storage
	// startTicks snapshots the engine tick probe at Start so
	// /v1/stats reports the daemon's own simulation work.
	startTicks int64
	startRuns  int64

	srv *http.Server
	ln  net.Listener
}

// NewHTTPServer builds the API part and its route table (no socket yet
// — Start binds it).
func NewHTTPServer(addr string, queue *Queue, storage *Storage) *HTTPServer {
	h := &HTTPServer{Addr: addr, queue: queue, storage: storage}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scenarios", h.handleSubmit)
	mux.HandleFunc("GET /v1/scenarios", h.handleList)
	mux.HandleFunc("GET /v1/scenarios/{key}", h.handleGet)
	mux.HandleFunc("PUT /v1/scenarios/{key}", h.handlePush)
	mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return h
}

// Start binds the listener and serves in the background.
func (h *HTTPServer) Start() error {
	ln, err := net.Listen("tcp", h.Addr)
	if err != nil {
		return fmt.Errorf("httpserver: %w", err)
	}
	h.ln = ln
	h.startTicks = scenario.ProbeSimTicks()
	h.startRuns = scenario.ProbeRuns()
	go func() {
		// ErrServerClosed is the Shutdown path; anything else would have
		// surfaced to clients already.
		_ = h.srv.Serve(ln)
	}()
	return nil
}

// Stop drains in-flight requests and closes the listener.
func (h *HTTPServer) Stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return h.srv.Shutdown(ctx)
}

// ListenAddr returns the bound address (resolves ":0" to the real port).
// Only valid after Start.
func (h *HTTPServer) ListenAddr() string {
	if h.ln == nil {
		return h.Addr
	}
	return h.ln.Addr().String()
}

// apiError is the JSON error envelope. Error is the human-readable
// message (the PR 9 field, unchanged); Code is the stable
// machine-readable classification (the Code* constants).
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// pushRequest is the PUT /v1/scenarios/{key} body.
type pushRequest struct {
	Spec    scenario.Spec     `json:"spec"`
	Outcome *scenario.Outcome `json:"outcome"`
}

// ListResponse is the GET /v1/scenarios shape.
type ListResponse struct {
	// Cells are the stored outcomes, sorted by key.
	Cells []scenario.CellInfo `json:"cells"`
	// Inflight are the queued/running/failed jobs, sorted by key.
	Inflight []JobStatus `json:"inflight"`
}

// StatsResponse is the GET /v1/stats shape.
type StatsResponse struct {
	Queue   QueueStats   `json:"queue"`
	Storage StorageStats `json:"storage"`
	// SimTicks / SimRuns are the engine work this daemon performed since
	// start (scenario probe deltas): a warm resubmission adds zero.
	SimTicks int64 `json:"sim_ticks"`
	SimRuns  int64 `json:"sim_runs"`
}

// writeHeader sends a JSON reply's status with its length, so net/http
// never chunks the body and a client can read it into one buffer.
func writeHeader(w http.ResponseWriter, code, length int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(length))
	w.WriteHeader(code)
}

// writeJSON emits one response: v's JSON and a newline, the bytes
// json.NewEncoder writes for it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	// No shape written here holds an outcome, and the one float in them
	// (degraded_ms) is finite, so encoding cannot fail.
	body, _ := json.Marshal(v)
	body = append(body, '\n')
	writeHeader(w, code, len(body))
	// A write fails only once the client has gone.
	_, _ = w.Write(body)
}

// outcomeMember opens the outcome member writeReply splices in.
const outcomeMember = `,"outcome":`

// writeReply emits a job status with its encoded outcome spliced in:
// the bytes writeJSON gives for the JobStatus with the decoded outcome
// attached, without decoding or re-encoding it. Outcome is JobStatus's
// last member, so it goes in just before the closing brace.
func writeReply(w http.ResponseWriter, code int, r reply) {
	if r.outcome == nil {
		writeJSON(w, code, r.JobStatus)
		return
	}
	head, _ := json.Marshal(r.JobStatus) // strings and a bool: cannot fail
	writeHeader(w, code, len(head)-1+len(outcomeMember)+len(r.outcome)+len("}\n"))
	// As in writeJSON, a write fails only once the client has gone.
	_, _ = w.Write(head[:len(head)-1])
	_, _ = io.WriteString(w, outcomeMember)
	_, _ = w.Write(r.outcome)
	_, _ = io.WriteString(w, "}\n")
}

// writeError emits one error envelope with its stable code.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiError{Error: msg, Code: code})
}

// answerErr maps a failed submit, wait or push onto status + code: only
// a spec that failed validation or hashing is the client's fault; a
// stopped module means the daemon is shutting down; a storage fault (an
// unreadable or undecodable cell) or a wait that ended before its job
// did is the server's.
func answerErr(w http.ResponseWriter, err error) {
	var se *specError
	switch {
	case errors.As(err, &se):
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// handleSubmit is POST /v1/scenarios. The body is read whole first: a
// stored spec's canonical JSON, the body Client.Submit sends, is
// answered from its cell (Queue.submitCanonical); any other body is
// decoded strictly and submitted.
func (h *HTTPServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	if st, ok := h.queue.submitCanonical(r.Context(), body); ok {
		writeReply(w, http.StatusOK, st)
		return
	}
	var spec scenario.Spec
	if err := scenario.DecodeStrict(bytes.NewReader(body), &spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	st, err := h.queue.Submit(r.Context(), spec)
	if err != nil {
		answerErr(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "1" && st.State != StateDone {
		ws, ok, err := h.queue.Wait(r.Context(), st.Key)
		if err != nil {
			answerErr(w, err)
			return
		}
		if ok {
			st = ws
		}
	}
	code := http.StatusOK
	if st.State == StateQueued || st.State == StateRunning {
		code = http.StatusAccepted
	}
	writeReply(w, code, st)
}

// handlePush is PUT /v1/scenarios/{key}: store an already-computed cell
// (tiered daemons replicating into the shared tier). The key in the URL
// must match the spec's content hash — content addressing makes pushes
// self-validating. The outcome is stored as the encoding of the decoded
// body, not as the request's bytes: the two differ (a null series, an
// empty aggregate), and every stored outcome must be the bytes
// json.Marshal gives.
func (h *HTTPServer) handlePush(w http.ResponseWriter, r *http.Request) {
	var pr pushRequest
	if err := scenario.DecodeStrict(http.MaxBytesReader(w, r.Body, 64<<20), &pr); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("decoding push: %v", err))
		return
	}
	if pr.Outcome == nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "push without outcome")
		return
	}
	if err := pr.Spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("invalid spec: %v", err))
		return
	}
	key, err := scenario.Key(pr.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error())
		return
	}
	if got := r.PathValue("key"); got != key {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec,
			fmt.Sprintf("pushed key %q does not match spec content key %q", got, key))
		return
	}
	enc, err := encodeOutcome(pr.Outcome)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	if err := h.storage.Put(r.Context(), pr.Spec, enc); err != nil {
		answerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, JobStatus{Key: key, State: StateDone, Cached: true})
}

// handleGet is GET /v1/scenarios/{key}.
func (h *HTTPServer) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	st, ok, err := h.queue.Status(r.Context(), key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	if !ok {
		// A miss while the shared tier is unreachable gets the degraded
		// code: the key may exist fleet-wide, this daemon just cannot see
		// it right now. IsNotFound matches both.
		code := CodeNotFound
		if h.storage.Degraded() {
			code = CodeRemoteDegraded
		}
		writeError(w, http.StatusNotFound, code, fmt.Sprintf("unknown scenario key %q", key))
		return
	}
	writeReply(w, http.StatusOK, st)
}

// handleList is GET /v1/scenarios.
func (h *HTTPServer) handleList(w http.ResponseWriter, r *http.Request) {
	infos, err := h.storage.List(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	if infos == nil {
		infos = []scenario.CellInfo{} // an empty daemon lists "cells":[]
	}
	writeJSON(w, http.StatusOK, ListResponse{Cells: infos, Inflight: h.queue.Inflight()})
}

// handleStats is GET /v1/stats.
func (h *HTTPServer) handleStats(w http.ResponseWriter, r *http.Request) {
	ss, err := h.storage.Stats(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Queue:    h.queue.Stats(),
		Storage:  ss,
		SimTicks: scenario.ProbeSimTicks() - h.startTicks,
		SimRuns:  scenario.ProbeRuns() - h.startRuns,
	})
}
