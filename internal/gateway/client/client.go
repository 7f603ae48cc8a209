// Package client is the Go client for the lsdfd gateway — the thing
// lsdfctl, the DataBrowser and the load experiments talk through, so
// the facility's wire protocol always has a real consumer.
//
// The client speaks the gateway's overload protocol: 429 (rate
// limit) and 503 (admission/drain) responses are retried with
// exponential backoff, honoring the server's Retry-After hint, so a
// briefly saturated tenant sees latency, not errors. Transient 5xx
// and transport failures are retried only for idempotent reads.
// Object bodies stream in both directions.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/gateway"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// APIError is a gateway error envelope surfaced as a Go error.
type APIError struct {
	Status  int
	Code    string
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("lsdfd: %s (%d %s)", e.Message, e.Status, e.Code)
}

// IsNotFound reports whether err is a 404 from the gateway.
func IsNotFound(err error) bool { return hasStatus(err, http.StatusNotFound) }

// IsDenied reports whether err is a 401/403 from the gateway.
func IsDenied(err error) bool {
	return hasStatus(err, http.StatusForbidden) || hasStatus(err, http.StatusUnauthorized)
}

// IsOverload reports whether err is a 429/503 that outlived the
// client's retry budget.
func IsOverload(err error) bool {
	return hasStatus(err, http.StatusTooManyRequests) || hasStatus(err, http.StatusServiceUnavailable)
}

func hasStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// Options tune a Client.
type Options struct {
	// HTTPClient overrides the transport (shared pooled transports
	// for fleet tests).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first (default 4).
	MaxRetries int
	// Backoff is the initial retry delay, doubled per attempt with
	// jitter; the server's Retry-After hint overrides it upward
	// (default 25ms).
	Backoff time.Duration
	// User optionally binds requests to a user name the token must
	// match (X-LSDF-User).
	User string
}

// Client talks to one lsdfd.
type Client struct {
	base  *url.URL
	token string
	user  string
	hc    *http.Client

	maxRetries int
	backoff    time.Duration
}

// New creates a client for the gateway at base (e.g.
// "http://127.0.0.1:7420") authenticating with the community's
// bearer token.
func New(base, token string, opts ...Options) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	return &Client{
		base:       u,
		token:      token,
		user:       o.User,
		hc:         o.HTTPClient,
		maxRetries: o.MaxRetries,
		backoff:    o.Backoff,
	}, nil
}

// Host returns the gateway's host:port.
func (c *Client) Host() string { return c.base.Host }

// ---- object data plane ------------------------------------------------

// Put streams body into the object at path. The write is not retried
// unless body is replayable (an io.Seeker); PutObject is the
// retryable byte-slice form. Non-empty project registers the object
// as a dataset in the same request.
func (c *Client) Put(ctx context.Context, path string, body io.Reader, project string, tags ...string) (gateway.PutResult, error) {
	q := url.Values{}
	if project != "" {
		q.Set("project", project)
	}
	if len(tags) > 0 {
		q.Set("tags", strings.Join(tags, ","))
	}
	mkBody := func() (io.Reader, bool) { return body, false }
	if s, ok := body.(io.Seeker); ok {
		mkBody = func() (io.Reader, bool) {
			_, err := s.Seek(0, io.SeekStart)
			return body, err == nil
		}
	}
	var res gateway.PutResult
	err := c.doJSON(ctx, http.MethodPut, "/v1/objects"+path, q, mkBody, "application/octet-stream", &res)
	return res, err
}

// PutObject stores data at path with full overload-retry semantics.
func (c *Client) PutObject(ctx context.Context, path string, data []byte, project string, tags ...string) (gateway.PutResult, error) {
	return c.Put(ctx, path, bytes.NewReader(data), project, tags...)
}

// Get opens a streaming read of the object at path. The caller owns
// the returned body.
func (c *Client) Get(ctx context.Context, path string) (io.ReadCloser, error) {
	return c.get(ctx, path, "")
}

// GetRange reads length bytes from offset (length < 0 = through the
// end of the object).
func (c *Client) GetRange(ctx context.Context, path string, offset, length int64) (io.ReadCloser, error) {
	spec := fmt.Sprintf("bytes=%d-", offset)
	if length >= 0 {
		spec = fmt.Sprintf("bytes=%d-%d", offset, offset+length-1)
	}
	return c.get(ctx, path, spec)
}

// ReadObject reads the whole object into memory.
func (c *Client) ReadObject(ctx context.Context, path string) ([]byte, error) {
	rc, err := c.Get(ctx, path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

func (c *Client) get(ctx context.Context, path, rangeSpec string) (io.ReadCloser, error) {
	hdr := http.Header{}
	if rangeSpec != "" {
		hdr.Set("Range", rangeSpec)
	}
	resp, err := c.do(ctx, http.MethodGet, "/v1/objects"+path, nil, nil, "", hdr)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Remove deletes the object (and its dataset record) at path.
func (c *Client) Remove(ctx context.Context, path string) (gateway.RemoveResult, error) {
	var res gateway.RemoveResult
	err := c.doJSON(ctx, http.MethodDelete, "/v1/objects"+path, nil, nil, "", &res)
	return res, err
}

// Stat describes the object at path, joined with its dataset record.
func (c *Client) Stat(ctx context.Context, path string) (gateway.ObjectInfo, error) {
	var res gateway.ObjectInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/stat"+path, nil, nil, "", &res)
	return res, err
}

// List enumerates the namespace under prefix.
func (c *Client) List(ctx context.Context, prefix string) ([]gateway.ObjectInfo, error) {
	var res gateway.ListResult
	err := c.doJSON(ctx, http.MethodGet, "/v1/list", url.Values{"prefix": {prefix}}, nil, "", &res)
	return res.Objects, err
}

// ---- metadata plane ---------------------------------------------------

// FindQuery filters datasets server-side.
type FindQuery struct {
	Project string
	Tags    []string
	Prefix  string
	Limit   int
}

// Find queries the metadata DB.
func (c *Client) Find(ctx context.Context, q FindQuery) ([]metadata.Dataset, error) {
	v := url.Values{}
	if q.Project != "" {
		v.Set("project", q.Project)
	}
	if len(q.Tags) > 0 {
		v.Set("tag", strings.Join(q.Tags, ","))
	}
	if q.Prefix != "" {
		v.Set("prefix", q.Prefix)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	var res gateway.DatasetsResult
	err := c.doJSON(ctx, http.MethodGet, "/v1/datasets", v, nil, "", &res)
	return res.Datasets, err
}

// Dataset fetches the dataset registered at path.
func (c *Client) Dataset(ctx context.Context, path string) (metadata.Dataset, error) {
	var res metadata.Dataset
	err := c.doJSON(ctx, http.MethodGet, "/v1/dataset", url.Values{"path": {path}}, nil, "", &res)
	return res, err
}

// Tag adds a tag to the dataset at path.
func (c *Client) Tag(ctx context.Context, path, tag string) (metadata.Dataset, error) {
	return c.tag(ctx, "/v1/datasets/tag", path, tag)
}

// Untag removes a tag from the dataset at path.
func (c *Client) Untag(ctx context.Context, path, tag string) (metadata.Dataset, error) {
	return c.tag(ctx, "/v1/datasets/untag", path, tag)
}

func (c *Client) tag(ctx context.Context, endpoint, path, tag string) (metadata.Dataset, error) {
	var res metadata.Dataset
	err := c.doJSON(ctx, http.MethodPost, endpoint, nil, jsonBody(gateway.TagRequest{Path: path, Tag: tag}), "application/json", &res)
	return res, err
}

// Ingest stores and registers a batch of small objects in one
// request — the wire form of the DAQ bulk path. A nil error means
// the batch was processed; per-object outcomes are in the result.
func (c *Client) Ingest(ctx context.Context, objects []gateway.IngestObject) (gateway.IngestResult, error) {
	var res gateway.IngestResult
	err := c.doJSON(ctx, http.MethodPost, "/v1/ingest", nil, jsonBody(gateway.IngestRequest{Objects: objects}), "application/json", &res)
	return res, err
}

// ---- jobs -------------------------------------------------------------

// SubmitJob starts a named analysis job; poll Job (or WaitJob) for
// completion.
func (c *Client) SubmitJob(ctx context.Context, req gateway.JobRequest) (gateway.JobStatus, error) {
	var res gateway.JobStatus
	err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", nil, jsonBody(req), "application/json", &res)
	return res, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (gateway.JobStatus, error) {
	var res gateway.JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, "", &res)
	return res, err
}

// Jobs lists the tenant's jobs.
func (c *Client) Jobs(ctx context.Context) ([]gateway.JobStatus, error) {
	var res gateway.JobsResult
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, nil, "", &res)
	return res.Jobs, err
}

// WaitJob returns once the job leaves the running state. Each ask
// long-polls (GET /v1/jobs/{id}?wait=): the gateway answers when the
// job finishes, or "running" after gateway.MaxJobWait or when it
// drains; poll is the pause before asking again.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (gateway.JobStatus, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	q := url.Values{"wait": {strconv.FormatInt(gateway.MaxJobWait.Milliseconds(), 10)}}
	for {
		var st gateway.JobStatus
		if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, q, nil, "", &st); err != nil {
			return st, err
		}
		if st.State != gateway.JobRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Metrics fetches the calling tenant's traffic counters.
func (c *Client) Metrics(ctx context.Context) (gateway.MetricsResult, error) {
	var res gateway.MetricsResult
	err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, nil, "", &res)
	return res, err
}

// MetricsText fetches the facility-wide Prometheus exposition from
// GET /metrics — every subsystem's counters in one scrape. This is
// what `lsdfctl metrics` prints.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Traces fetches the n most recent request traces from the gateway's
// debug ring (n <= 0 uses the server default).
func (c *Client) Traces(ctx context.Context, n int) ([]obs.TraceView, error) {
	var q url.Values
	if n > 0 {
		q = url.Values{"n": {strconv.Itoa(n)}}
	}
	var res []obs.TraceView
	err := c.doJSON(ctx, http.MethodGet, "/v1/debug/traces", q, nil, "", &res)
	return res, err
}

// Trace fetches one trace by ID — the value a mutating call echoed
// back in its X-LSDF-Trace response header.
func (c *Client) Trace(ctx context.Context, id string) (obs.TraceView, error) {
	var res obs.TraceView
	err := c.doJSON(ctx, http.MethodGet, "/v1/debug/traces", url.Values{"id": {id}}, nil, "", &res)
	return res, err
}

// Health probes the server; an error means unreachable or draining.
func (c *Client) Health(ctx context.Context) error {
	return c.doJSON(ctx, http.MethodGet, "/v1/healthz", nil, nil, "", &struct {
		Status string `json:"status"`
	}{})
}

// ---- request core -----------------------------------------------------

// jsonBody marshals once and replays across retries.
func jsonBody(v any) func() (io.Reader, bool) {
	data, err := json.Marshal(v)
	return func() (io.Reader, bool) {
		if err != nil {
			return nil, false
		}
		return bytes.NewReader(data), true
	}
}

// doJSON runs a request and decodes the JSON response into out.
func (c *Client) doJSON(ctx context.Context, method, path string, q url.Values, mkBody func() (io.Reader, bool), contentType string, out any) error {
	resp, err := c.do(ctx, method, path, q, mkBody, contentType, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s: %w", method, path, err)
	}
	return nil
}

// do issues the request with the retry policy and returns a response
// with status < 400; errors carry the decoded envelope as *APIError.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, mkBody func() (io.Reader, bool), contentType string, hdr http.Header) (*http.Response, error) {
	u := *c.base
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	if q != nil {
		u.RawQuery = q.Encode()
	}
	idempotent := method == http.MethodGet || method == http.MethodHead

	var lastErr error
	for attempt := 0; ; attempt++ {
		var body io.Reader
		replayable := true
		if mkBody != nil {
			body, replayable = mkBody()
		}
		req, err := http.NewRequestWithContext(ctx, method, u.String(), body)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Authorization", "Bearer "+c.token)
		if c.user != "" {
			req.Header.Set("X-LSDF-User", c.user)
		}
		// A caller-minted trace (lsdfctl --trace) rides the header so
		// the gateway adopts its ID instead of minting one.
		if id := obs.TraceID(ctx); id != "" {
			req.Header.Set(obs.TraceHeader, id)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, vs := range hdr {
			req.Header[k] = vs
		}

		resp, err := c.hc.Do(req)
		var wait time.Duration
		switch {
		case err != nil:
			// Transport failure: the server may or may not have seen
			// the request — replay only reads.
			lastErr = err
			if !idempotent {
				return nil, err
			}
		case resp.StatusCode < 400:
			return resp, nil
		default:
			apiErr := decodeEnvelope(resp)
			lastErr = apiErr
			switch {
			case resp.StatusCode == http.StatusTooManyRequests,
				resp.StatusCode == http.StatusServiceUnavailable:
				// Overload rejections happen before the handler ran:
				// safe to retry any method with a replayable body.
				if !replayable {
					return nil, apiErr
				}
				wait = retryHint(resp)
			case resp.StatusCode >= 500 && idempotent:
				// Transient server error on a read.
			default:
				return nil, apiErr
			}
		}
		if attempt >= c.maxRetries {
			return nil, lastErr
		}
		backoff := c.backoff << attempt
		backoff += time.Duration(rand.Int63n(int64(backoff)/2 + 1)) // full-ish jitter
		if wait > backoff {
			backoff = wait
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
	}
}

func decodeEnvelope(resp *http.Response) *APIError {
	defer resp.Body.Close()
	var env gateway.ErrorEnvelope
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	if json.Unmarshal(data, &env) == nil && env.Error.Status != 0 {
		return &APIError{Status: env.Error.Status, Code: env.Error.Code, Message: env.Error.Message}
	}
	return &APIError{Status: resp.StatusCode, Code: "http_error", Message: strings.TrimSpace(string(data))}
}

func retryHint(resp *http.Response) time.Duration {
	if ms := resp.Header.Get("X-LSDF-Retry-After-Ms"); ms != "" {
		if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n >= 0 {
			return time.Duration(n) * time.Millisecond
		}
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n >= 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 0
}
