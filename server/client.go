package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/blockreorg/blockreorg/sparse"
)

// maxResponseBytes caps every response body the client reads, so a
// misbehaving server cannot make a client buffer without bound.
const maxResponseBytes = 1 << 28

// Client is the typed client for spgemmd's HTTP API, and for a cluster
// router, which serves the same API. It speaks the wire types this package
// defines, so a client and the server it talks to cannot drift apart.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8447".
	Base string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
}

// StatusError is a non-2xx answer. Message is the text of the server's
// {"error": ...} envelope, or the trimmed body when it sent none.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	status := fmt.Sprintf("%d %s", e.Code, http.StatusText(e.Code))
	if e.Message == "" {
		return "server returned " + status
	}
	return status + ": " + e.Message
}

// IsRejected reports whether err is an admission refusal: 429 (queue full
// or rate limited) or 503 (draining). A rejected request never became a
// job and may be retried.
func IsRejected(err error) bool {
	var se *StatusError
	return errors.As(err, &se) &&
		(se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable)
}

// Do sends one request and decodes a 2xx answer into out (skipped when out
// is nil). in, when non-nil, is sent as the JSON body. Any other status
// comes back as a *StatusError.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Reading to EOF lets the transport reuse the connection.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding the answer to %s %s: %w", method, path, err)
	}
	return nil
}

// send issues one request and returns its 2xx response, whose body the
// caller closes. Any other status comes back as a *StatusError.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return resp, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	return nil, statusError(resp.StatusCode, data)
}

func statusError(code int, body []byte) *StatusError {
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
		return &StatusError{Code: code, Message: envelope.Error}
	}
	return &StatusError{Code: code, Message: strings.TrimSpace(string(body))}
}

// Register uploads m under name and returns the structure fingerprint
// the server recorded for it (%016x). A name already taken answers 409.
func (c *Client) Register(ctx context.Context, name string, m *sparse.CSR) (string, error) {
	var info matrixInfo
	if err := c.Do(ctx, http.MethodPost, "/v1/matrices", RegisterRequest{Name: name, COO: PayloadFromCSR(m)}, &info); err != nil {
		return "", err
	}
	return info.Fingerprint, nil
}

// Multiply submits a multiply job; Wait polls it to completion.
func (c *Client) Multiply(ctx context.Context, req *MultiplyRequest) (*Accepted, error) {
	return c.submit(ctx, "/v1/multiply", req)
}

// Pipeline submits a pipeline job; Wait polls it to completion.
func (c *Client) Pipeline(ctx context.Context, req *PipelineRequest) (*Accepted, error) {
	return c.submit(ctx, "/v1/pipeline", req)
}

func (c *Client) submit(ctx context.Context, path string, req any) (*Accepted, error) {
	var acc Accepted
	if err := c.Do(ctx, http.MethodPost, path, req, &acc); err != nil {
		return nil, err
	}
	return &acc, nil
}

// Job fetches a job's current status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.Do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls a job every interval until it is done or failed. It returns
// ctx.Err() when ctx ends first.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*JobStatus, error) {
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if st.State == StateDone || st.State == StateFailed {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(interval):
		}
	}
}

// Metrics copies the server's Prometheus exposition to w.
func (c *Client) Metrics(ctx context.Context, w io.Writer) error {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, io.LimitReader(resp.Body, maxResponseBytes))
	return err
}
