package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/scenario"
)

// Stable machine-readable error codes carried in the apiError envelope
// (and surfaced on StatusError.APICode). Old clients that only read the
// `error` string keep working; new clients should branch on these
// instead of matching message text.
const (
	// CodeNotFound: the scenario key is neither in flight nor stored.
	CodeNotFound = "not_found"
	// CodeInvalidSpec: the submitted spec failed decoding or validation.
	CodeInvalidSpec = "invalid_spec"
	// CodeShuttingDown: the daemon is stopping and no longer accepts work.
	CodeShuttingDown = "shutting_down"
	// CodeRemoteDegraded: the key was not found locally and the shared
	// remote tier could not be consulted (circuit breaker open) — the key
	// may exist fleet-wide.
	CodeRemoteDegraded = "remote_degraded"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// Client talks to a scenariod instance. It is safe for concurrent use
// (goroutines sharing one client share the underlying http.Transport's
// connection pool).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for a daemon base URL ("http://host:port").
// Each call is bounded by its context and, as a backstop for callers
// whose context never ends, by a 5-minute HTTP timeout.
func NewClient(base string) *Client {
	return &Client{base: base, hc: &http.Client{Timeout: 5 * time.Minute}}
}

// Base returns the daemon base URL the client points at.
func (c *Client) Base() string { return c.base }

// StatusError is a non-2xx API response. Code is the HTTP status;
// APICode is the stable machine-readable envelope code (empty when the
// server predates codes or the body was not an envelope).
type StatusError struct {
	Code    int
	APICode string
	Message string
}

func (e *StatusError) Error() string {
	if e.APICode != "" {
		return fmt.Sprintf("scenariod: HTTP %d (%s): %s", e.Code, e.APICode, e.Message)
	}
	return fmt.Sprintf("scenariod: HTTP %d: %s", e.Code, e.Message)
}

// IsNotFound reports whether err says the scenario key is unknown. It
// matches the stable envelope code first (including the degraded-read
// variant, which is still "not found here") and falls back to the raw
// 404 status for servers that predate codes.
func IsNotFound(err error) bool {
	se, ok := err.(*StatusError)
	if !ok {
		return false
	}
	switch se.APICode {
	case CodeNotFound, CodeRemoteDegraded:
		return true
	case "":
		return se.Code == http.StatusNotFound
	}
	return false
}

// do runs one JSON round trip. A failed call is not retried: callers
// with a retry policy (RemoteBackend's write-through) own it.
func (c *Client) do(ctx context.Context, method, url string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decode(resp, v)
}

// maxSizedReply is the largest Content-Length decode reads into one
// buffer of that length. A longer or unsized reply is read through a
// bounded ReadAll, which grows its buffer only as bytes arrive, so a
// hostile Content-Length never makes the client allocate more than it
// reads.
const maxSizedReply = 1 << 20

// decode reads one JSON response, mapping API error envelopes onto Go
// errors.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	var body []byte
	var err error
	if n := resp.ContentLength; n >= 0 && n <= maxSizedReply {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	}
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var apiErr apiError
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return &StatusError{Code: resp.StatusCode, APICode: apiErr.Code, Message: apiErr.Error}
		}
		return &StatusError{Code: resp.StatusCode, Message: string(body)}
	}
	return json.Unmarshal(body, v)
}

// Submit posts a spec; wait=true blocks server-side until the job
// completes (one round trip for warm keys either way).
func (c *Client) Submit(ctx context.Context, spec scenario.Spec, wait bool) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	url := c.base + "/v1/scenarios"
	if wait {
		url += "?wait=1"
	}
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, url, body, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Push uploads an already-computed outcome, encoded as the store holds
// it, under its spec's content key — the write-through verb tiered
// daemons use to replicate cells into the shared tier without
// re-simulating. The body carries enc as its outcome member.
func (c *Client) Push(ctx context.Context, spec scenario.Spec, enc []byte) error {
	key, err := scenario.Key(spec)
	if err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Spec    scenario.Spec   `json:"spec"`
		Outcome json.RawMessage `json:"outcome"`
	}{spec, enc})
	if err != nil {
		return err
	}
	var st JobStatus
	return c.do(ctx, http.MethodPut, c.base+"/v1/scenarios/"+key, body, &st)
}

// Get polls a key.
func (c *Client) Get(ctx context.Context, key string) (JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, c.base+"/v1/scenarios/"+key, nil, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// List fetches the stored cells and in-flight jobs.
func (c *Client) List(ctx context.Context) (ListResponse, error) {
	var lr ListResponse
	if err := c.do(ctx, http.MethodGet, c.base+"/v1/scenarios", nil, &lr); err != nil {
		return ListResponse{}, err
	}
	return lr, nil
}

// Stats fetches the daemon accounting.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var sr StatsResponse
	if err := c.do(ctx, http.MethodGet, c.base+"/v1/stats", nil, &sr); err != nil {
		return StatsResponse{}, err
	}
	return sr, nil
}
