package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/scenario"
)

// HTTPServer is the API module. Endpoints:
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
// Spec bodies are decoded strictly (unknown fields are a 400): a typoed
// field would otherwise silently drop out of the content hash and alias
// a different cell.
type HTTPServer struct {
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// queue and storage are the modules the handlers call into.
	queue   *Queue
	storage *Storage
	// startTicks snapshots the engine tick probe at module start so
	// /v1/stats reports the daemon's own simulation work.
	startTicks int64
	startRuns  int64

	srv *http.Server
	ln  net.Listener
	mux *http.ServeMux
}

// NewHTTPServer builds the API module.
func NewHTTPServer(addr string, queue *Queue, storage *Storage) *HTTPServer {
	return &HTTPServer{Addr: addr, queue: queue, storage: storage}
}

// Name implements Module.
func (h *HTTPServer) Name() string { return "httpserver" }

// Configure validates the wiring and builds the route table (no socket
// yet — Start owns outside resources).
func (h *HTTPServer) Configure() error {
	if h.queue == nil || h.storage == nil {
		return fmt.Errorf("httpserver: nil queue or storage module")
	}
	if h.Addr == "" {
		return fmt.Errorf("httpserver: empty listen address")
	}
	h.mux = http.NewServeMux()
	h.mux.HandleFunc("POST /v1/scenarios", h.handleSubmit)
	h.mux.HandleFunc("GET /v1/scenarios", h.handleList)
	h.mux.HandleFunc("GET /v1/scenarios/{key}", h.handleGet)
	h.mux.HandleFunc("PUT /v1/scenarios/{key}", h.handlePush)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.srv = &http.Server{Handler: h.mux, ReadHeaderTimeout: 10 * time.Second}
	return nil
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
	Cells []CellInfo `json:"cells"`
	// Inflight are the queued/running/failed jobs, sorted by key.
	Inflight []JobStatus `json:"inflight"`
}

// CellInfo mirrors scenario.CellInfo with JSON tags for the API.
type CellInfo struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	Units   int    `json:"units"`
	Version int    `json:"version"`
	Size    int64  `json:"size"`
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

// writeJSON emits one response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError emits one error envelope with its stable code.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, apiError{Error: msg, Code: code})
}

// submitErr maps a queue submit error onto status + code: only a spec
// that failed validation or hashing is the client's fault; a storage
// fault (an unreadable or undecodable cell) is the server's.
func submitErr(w http.ResponseWriter, err error) {
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

// handleSubmit is POST /v1/scenarios.
func (h *HTTPServer) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	var spec scenario.Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("decoding spec: %v", err))
		return
	}
	st, err := h.queue.Submit(r.Context(), spec)
	if err != nil {
		submitErr(w, err)
		return
	}
	if r.URL.Query().Get("wait") == "1" && st.State != StateDone {
		if ws, ok, err := h.queue.Wait(r.Context(), st.Key); err == nil && ok {
			st = ws
		}
	}
	code := http.StatusOK
	if st.State == StateQueued || st.State == StateRunning {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

// handlePush is PUT /v1/scenarios/{key}: store an already-computed cell
// (tiered daemons replicating into the shared tier). The key in the URL
// must match the spec's content hash — content addressing makes pushes
// self-validating.
func (h *HTTPServer) handlePush(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	var pr pushRequest
	if err := dec.Decode(&pr); err != nil {
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
	if err := h.storage.Put(r.Context(), pr.Spec, pr.Outcome); err != nil {
		if err == ErrStopped {
			writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
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
	writeJSON(w, http.StatusOK, st)
}

// handleList is GET /v1/scenarios.
func (h *HTTPServer) handleList(w http.ResponseWriter, r *http.Request) {
	infos, err := h.storage.List(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	resp := ListResponse{Cells: make([]CellInfo, len(infos)), Inflight: h.queue.Inflight()}
	for i, info := range infos {
		resp.Cells[i] = CellInfo{
			Key: info.Key, Kind: info.Kind, Name: info.Name,
			Units: info.Units, Version: info.Version, Size: info.Size,
		}
	}
	writeJSON(w, http.StatusOK, resp)
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
