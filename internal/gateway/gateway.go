// Package gateway is the facility's network front door: the lsdfd
// service exposing the LSDF over HTTP/JSON with streamed object
// bodies. Everything the paper's communities do against the facility
// in-process — ADAL namespace reads and writes, metadata queries,
// batched DAQ ingest, MapReduce job submission — is reachable here
// over the wire, authenticated per community with bearer tokens on
// the adal Authenticator/ACL machinery.
//
// The front door is multi-tenant by construction. Every request is
// authenticated first, then charged against its tenant's token
// bucket (429 + Retry-After when the bucket is dry) and admitted
// against its tenant's in-flight bound (503 + Retry-After when the
// tenant already holds its share of handlers), so one community
// saturating its rate cannot starve another's admission slots.
// Object bodies stream: reads are paced by the client's socket
// (connection-level backpressure) with a per-chunk write deadline so
// a stalled client cannot hold a handler forever, and writes are
// read at the server's pace with the same per-chunk guard. Drain
// flips the server into shutdown mode: new requests get 503 while
// in-flight responses run to completion — the graceful half of the
// crash story whose other half is the metadata WAL (kill -9 of lsdfd
// loses no acknowledged dataset; see the drain tests).
//
// Every error, on every path — including unknown routes, bad
// methods, oversized bodies and handler panics — is a JSON envelope
// {"error":{"code","status","message"}}; the FuzzGatewayRequest
// contract. See DESIGN.md §11 for the architecture and the API
// reference.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adal"
	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/mrpc"
	"repro/internal/obs"
	"repro/internal/units"
)

// Config assembles a gateway over a running facility's parts.
type Config struct {
	// Layer is the facility namespace every object operation resolves
	// through (required).
	Layer *adal.Layer
	// Meta is the project metadata DB (required).
	Meta *metadata.Store
	// Tenants declares the communities and their limits. The gateway
	// builds its TokenAuth and ACL from them.
	Tenants []Tenant
	// RunSpec submits a job: the request becomes a wire-level job spec
	// resolved and executed by the facility (facility.SubmitNamedJob)
	// — on its distributed compute plane when one runs, with the
	// submitting tenant carried through to the master's fair-share
	// scheduler. nil disables the /v1/jobs endpoints with 501.
	RunSpec func(spec mrpc.JobSpec, tenant string) (func() (*mapreduce.Result, error), error)
	// HasJob reports whether the RunSpec registry knows a template —
	// the pre-authorization 404 check (facility.HasJobTemplate).
	HasJob func(name string) bool
	// Obs is the metrics registry the gateway instruments into and
	// serves at GET /metrics. The facility passes its shared registry
	// here so one scrape covers every subsystem; nil builds a private
	// one (default).
	Obs *obs.Registry
	// Tracer is the trace ring requests are recorded into and served
	// from at GET /v1/debug/traces. nil builds a private ring of 256
	// traces.
	Tracer *obs.Tracer
}

const (
	// maxJSONBody caps JSON request bodies — ingest batches, job
	// submissions.
	maxJSONBody = 8 * units.MiB
	// streamChunkTimeout is the per-chunk socket deadline on streamed
	// bodies: a client that reads (or writes) nothing for this long
	// loses its connection.
	streamChunkTimeout = 30 * time.Second
	// drainRetryAfter is the Retry-After hint on drain/admission 503s.
	drainRetryAfter = time.Second
)

// Server is the lsdfd HTTP front door. It implements http.Handler;
// wrap it in an http.Server (or httptest) to serve.
type Server struct {
	cfg   Config
	authn *adal.TokenAuth
	acl   *adal.ACL
	al    *adal.AuthLayer
	mux   *http.ServeMux

	tracer *obs.Tracer
	met    gwMetrics
	promH  http.Handler

	draining atomic.Bool
	drainCh  chan struct{} // closed by Drain: ends every parked job wait
	inFlight atomic.Int64

	tenants map[string]*tenantState // fixed at New; read-only after

	jobsMu   sync.Mutex
	jobSeq   int64
	jobs     map[string]*jobState // running jobs and the last JobHistory finished
	finished []string             // finished job IDs, oldest first
}

// gwMetrics holds the gateway's obs series handles: per-tenant
// traffic counters and the per-operation latency histogram.
type gwMetrics struct {
	requests  *obs.CounterVec
	throttled *obs.CounterVec
	rejected  *obs.CounterVec
	bytesIn   *obs.CounterVec
	bytesOut  *obs.CounterVec
	reqDur    *obs.HistogramVec
}

func newGWMetrics(reg *obs.Registry) gwMetrics {
	return gwMetrics{
		requests:  reg.CounterVec("lsdf_gateway_requests_total", "Admitted requests per tenant.", "tenant"),
		throttled: reg.CounterVec("lsdf_gateway_throttled_total", "429s from the per-tenant rate limiter.", "tenant"),
		rejected:  reg.CounterVec("lsdf_gateway_rejected_total", "503s from per-tenant admission control.", "tenant"),
		bytesIn:   reg.CounterVec("lsdf_gateway_bytes_in_total", "Object/ingest payload bytes received.", "tenant"),
		bytesOut:  reg.CounterVec("lsdf_gateway_bytes_out_total", "Object payload bytes served.", "tenant"),
		reqDur:    reg.HistogramVec("lsdf_gateway_request_ns", "Handler latency per operation.", "op"),
	}
}

// New builds a gateway. Layer and Meta are required; Tenants define
// who may call it.
func New(cfg Config) (*Server, error) {
	if cfg.Layer == nil || cfg.Meta == nil {
		return nil, fmt.Errorf("gateway: Layer and Meta are required")
	}
	// Each of these would hand one tenant's requests to another: an
	// empty token is what a request without an Authorization header
	// presents, and a repeated token or name replaces the tenant
	// declared before it.
	names, tokens := make(map[string]bool), make(map[string]bool)
	for _, t := range cfg.Tenants {
		switch {
		case t.Token == "":
			return nil, fmt.Errorf("gateway: tenant %q has no token", t.Name)
		case tokens[t.Token]:
			return nil, fmt.Errorf("gateway: tenant %q reuses another tenant's token", t.Name)
		case names[t.Name]:
			return nil, fmt.Errorf("gateway: tenant %q is declared twice", t.Name)
		}
		names[t.Name], tokens[t.Token] = true, true
	}
	authn := adal.NewTokenAuth()
	acl := adal.NewACL()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(256)
	}
	s := &Server{
		cfg:     cfg,
		authn:   authn,
		acl:     acl,
		al:      adal.NewAuthLayer(cfg.Layer, authn, acl),
		tracer:  tracer,
		met:     newGWMetrics(reg),
		promH:   reg.Handler(),
		tenants: make(map[string]*tenantState),
		jobs:    make(map[string]*jobState),
		drainCh: make(chan struct{}),
	}
	reg.GaugeFunc("lsdf_gateway_in_flight", "Requests currently admitted across all tenants.", s.inFlight.Load)
	reg.GaugeFunc("lsdf_gateway_draining", "1 while the front door is draining.", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	for _, t := range cfg.Tenants {
		t = t.withDefaults()
		authn.Register(t.Token, adal.Principal{User: t.Name, Groups: []string{t.Name}})
		for _, p := range t.Prefixes {
			acl.Allow(t.Name, p, adal.PermRead|adal.PermWrite)
		}
		for _, p := range t.ReadPrefixes {
			acl.Allow(t.Name, p, adal.PermRead)
		}
		s.tenants[t.Name] = newTenantState(t, s.met)
	}
	mux := http.NewServeMux()
	s.route(mux, "GET /v1/objects/{path...}", "get_object", s.getObject)
	s.route(mux, "PUT /v1/objects/{path...}", "put_object", s.putObject)
	s.route(mux, "DELETE /v1/objects/{path...}", "delete_object", s.deleteObject)
	s.route(mux, "GET /v1/stat/{path...}", "stat", s.statObject)
	s.route(mux, "GET /v1/list", "list", s.list)
	s.route(mux, "GET /v1/datasets", "find_datasets", s.findDatasets)
	s.route(mux, "GET /v1/dataset", "dataset", s.datasetByPath)
	s.route(mux, "POST /v1/datasets/tag", "tag", s.tagDataset)
	s.route(mux, "POST /v1/datasets/untag", "untag", s.tagDataset)
	s.route(mux, "POST /v1/ingest", "ingest", s.ingest)
	s.route(mux, "POST /v1/jobs", "submit_job", s.submitJob)
	s.route(mux, "GET /v1/jobs", "list_jobs", s.listJobs)
	s.route(mux, "GET /v1/jobs/{id}", "job_status", s.jobStatus)
	s.route(mux, "GET /v1/metrics", "metrics", s.metrics)
	s.mux = mux
	return s, nil
}

// route registers a handler wrapped with its operation's
// instrumentation: a gw.<op> span on traced requests and a sample in
// the per-op latency histogram. The histogram series is resolved once
// at registration, so the hot path pays one time.Since and one atomic
// observe.
func (s *Server) route(mux *http.ServeMux, pattern, op string, h http.HandlerFunc) {
	hist := s.met.reqDur.With(op)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sp := obs.StartSpan(r.Context(), "gw."+op)
		h(w, r)
		sp.End()
		hist.ObserveSince(start)
	})
}

// TraceRing returns the trace ring behind GET /v1/debug/traces.
func (s *Server) TraceRing() *obs.Tracer { return s.tracer }

// Drain flips the server into shutdown: every new request — on new
// or kept-alive connections — is rejected with a 503 envelope and
// Retry-After, while requests already admitted run to completion (a
// parked job wait answers at once, with the job still running). It
// returns once the last in-flight request finishes, or with the
// context's error if they outlast it.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	// Poll the in-flight count rather than Wait on a WaitGroup: new
	// requests keep arriving (to be 503ed) while we wait, and
	// WaitGroup forbids Add concurrent with Wait across a zero
	// counter. 1ms granularity is nothing on a shutdown path.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.inFlight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats snapshots every tenant's traffic counters.
func (s *Server) Stats() map[string]TenantStats {
	out := make(map[string]TenantStats, len(s.tenants))
	for name, ts := range s.tenants {
		out[name] = ts.stats()
	}
	return out
}

// authInfo rides the request context from the front-door middleware
// to the handlers.
type authInfo struct {
	creds     adal.Credentials
	principal adal.Principal
	tenant    *tenantState
}

type ctxKey struct{}

func reqAuth(r *http.Request) *authInfo {
	ai, _ := r.Context().Value(ctxKey{}).(*authInfo)
	return ai
}

// ServeHTTP is the front door: panic containment, drain gate,
// authentication, rate limit, admission — then the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ew := &envelopeWriter{rw: w}
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				panic(p)
			}
			if !ew.wroteHeader {
				writeErr(ew, http.StatusInternalServerError, "internal", fmt.Sprintf("panic: %v", p))
				return
			}
			// Mid-stream panic: the envelope ship has sailed; kill
			// the connection rather than serve a truncated body as
			// success.
			panic(http.ErrAbortHandler)
		}
	}()

	if r.URL.Path == "/v1/healthz" {
		if s.draining.Load() {
			writeErr(ew, http.StatusServiceUnavailable, "draining", "lsdfd is draining")
			return
		}
		writeJSON(ew, http.StatusOK, map[string]string{"status": "ok"})
		return
	}

	// Observability plane: Prometheus exposition and the trace ring
	// answer before authentication and before the drain gate —
	// scrapers and operators need them most while the front door is
	// refusing tenant traffic.
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/metrics":
			s.promH.ServeHTTP(ew, r)
			return
		case "/v1/debug/traces":
			s.debugTraces(ew, r)
			return
		}
	}

	// Requests are counted before the drain re-check, so Drain's wait
	// covers every request that slipped past the flag.
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.draining.Load() {
		retryAfter(ew, drainRetryAfter)
		writeErr(ew, http.StatusServiceUnavailable, "draining", "lsdfd is draining; retry against another instance")
		return
	}

	// Every admitted request gets a trace: adopted from the client's
	// X-LSDF-Trace header when it carries one (lsdfctl minting), minted
	// here otherwise. The ID is echoed back so clients can correlate,
	// and rides the context through the mount stack and over mrpc. The
	// trace is named after the request line, truncated so a hostile URL
	// cannot balloon the ring's memory.
	name := r.Method + " " + r.URL.Path
	td := s.tracer.StartTraceID(r.Header.Get(obs.TraceHeader), name[:min(len(name), 128)])
	if td != nil {
		ew.Header().Set(obs.TraceHeader, td.ID)
		r = r.WithContext(obs.ContextWithTrace(r.Context(), td))
	}
	root := obs.StartSpanOn(td, "gw.request")
	defer func() {
		root.Annotate("status=%d", ew.status)
		root.End()
	}()

	creds := credentials(r)
	asp := obs.StartSpanOn(td, "gw.auth")
	principal, err := s.authn.Authenticate(creds)
	asp.End()
	if err != nil {
		writeErr(ew, http.StatusUnauthorized, "unauthenticated", err.Error())
		return
	}
	tenant := s.tenants[principal.User] // every token names a declared tenant
	if ok, retry := tenant.allow(time.Now()); !ok {
		tenant.throttled.Add(1)
		retryAfter(ew, retry)
		writeErr(ew, http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("tenant %s over its request rate", tenant.name))
		return
	}
	if !tenant.admit() {
		tenant.rejected.Add(1)
		retryAfter(ew, drainRetryAfter)
		writeErr(ew, http.StatusServiceUnavailable, "overloaded",
			fmt.Sprintf("tenant %s at its in-flight limit", tenant.name))
		return
	}
	defer tenant.release()
	tenant.requests.Add(1)

	ai := &authInfo{creds: creds, principal: principal, tenant: tenant}
	s.mux.ServeHTTP(ew, r.WithContext(context.WithValue(r.Context(), ctxKey{}, ai)))
}

// debugTraces serves the trace ring with the gateway's JSON-envelope
// error contract (the raw obs handler's 404 body is not an envelope).
// GET ?id=X returns one trace, GET ?n=K the K newest.
func (s *Server) debugTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		v, ok := s.tracer.Lookup(id)
		if !ok {
			writeErr(w, http.StatusNotFound, "not_found", "no trace "+id)
			return
		}
		writeJSON(w, http.StatusOK, v)
		return
	}
	n := 20
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	writeJSON(w, http.StatusOK, s.tracer.Recent(n))
}

// credentials extracts the bearer token (and optional user binding)
// from the request.
func credentials(r *http.Request) adal.Credentials {
	c := adal.Credentials{User: r.Header.Get("X-LSDF-User")}
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		c.Token = strings.TrimPrefix(h, "Bearer ")
	}
	return c
}

// reqPath canonicalizes the {path...} wildcard into an absolute
// federated path; Clean folds any ../ escape attempts.
func reqPath(r *http.Request) string {
	return path.Clean("/" + r.PathValue("path"))
}

// ---- object endpoints -------------------------------------------------

func (s *Server) getObject(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	fp := reqPath(r)
	if _, err := s.al.Authorize(ai.creds, fp, adal.PermRead); err != nil {
		s.fail(w, err)
		return
	}
	info, err := s.cfg.Layer.Stat(fp)
	if err != nil {
		s.fail(w, err)
		return
	}
	// The range is parsed and a 416 answered before anything is opened:
	// an open is a cache fill and a federated dial, and a request that
	// cannot be served must not pay for one.
	size := int64(info.Size)
	start, length := int64(0), size
	status, contentRange := http.StatusOK, ""
	if rng := r.Header.Get("Range"); rng != "" {
		st, ln, ok := parseRange(rng, size)
		if !ok {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
			writeErr(w, http.StatusRequestedRangeNotSatisfiable, "bad_range", "unsatisfiable range "+rng)
			return
		}
		if st >= 0 { // -1 = malformed, ignored per RFC 7233: serve the full body
			start, length = st, ln
			status = http.StatusPartialContent
			contentRange = fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size)
		}
	}
	// The mount stack (read cache, federation, site) positions the
	// stream itself; the request's context goes with it, so a client
	// that hangs up stops the cache's fill between blocks.
	rc, err := s.cfg.Layer.OpenRange(r.Context(), fp, start, length)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer rc.Close()
	if contentRange != "" {
		w.Header().Set("Content-Range", contentRange)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	w.Header().Set("X-LSDF-Object-Size", strconv.FormatInt(size, 10))
	w.WriteHeader(status)
	bp := streamBufPool.Get().(*[]byte)
	defer streamBufPool.Put(bp)
	n, _ := io.CopyBuffer(w, &bodyReader{r: rc, arm: chunkDeadline(http.NewResponseController(w).SetWriteDeadline)}, *bp)
	ai.tenant.bytesOut.Add(n)
}

func (s *Server) putObject(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	fp := reqPath(r)
	if _, err := s.al.Authorize(ai.creds, fp, adal.PermWrite); err != nil {
		s.fail(w, err)
		return
	}
	body := &bodyReader{r: r.Body, arm: chunkDeadline(http.NewResponseController(w).SetReadDeadline)}
	res := PutResult{Path: fp}
	var err error
	// ?project= registers the stored object as a dataset in the same
	// request — tags atomically, and durably when the store journals
	// (the response is the registration's group-commit ack).
	if project := r.URL.Query().Get("project"); project != "" {
		cr := ingest.StoreBatch(s.cfg.Layer, s.cfg.Meta, []*ingest.Object{{
			Project: project,
			Path:    fp,
			Data:    body,
			Tags:    splitList(r.URL.Query().Get("tags")),
		}})[0]
		res.Size, res.SHA256, res.DatasetID, err = cr.Dataset.Size, cr.Dataset.Checksum, cr.Dataset.ID, cr.Err
	} else if res.Size, res.SHA256, err = s.cfg.Layer.WriteChecksummed(fp, body); err == nil {
		_ = s.cfg.Meta.SyncPaths(fp) // nothing registers it: wait for its staged home note here
	}
	ai.tenant.bytesIn.Add(body.n)
	switch {
	case body.err != nil:
		writeErr(w, http.StatusBadRequest, "write_failed", body.err.Error())
	case err != nil:
		s.fail(w, err)
	default:
		writeJSON(w, http.StatusCreated, res)
	}
}

func (s *Server) deleteObject(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	fp := reqPath(r)
	if _, err := s.al.Authorize(ai.creds, fp, adal.PermWrite); err != nil {
		s.fail(w, err)
		return
	}
	res := RemoveResult{Path: fp}
	if ds, ok := s.cfg.Meta.ByPath(fp); ok {
		if err := s.cfg.Meta.Delete(ds.ID); err != nil {
			s.fail(w, err)
			return
		}
		res.DatasetID = ds.ID
	}
	if err := s.cfg.Layer.Remove(fp); err != nil {
		s.fail(w, err)
		return
	}
	res.Removed = true
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) statObject(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	fp := reqPath(r)
	if _, err := s.al.Authorize(ai.creds, fp, adal.PermRead); err != nil {
		s.fail(w, err)
		return
	}
	info, err := s.cfg.Layer.Stat(fp)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.objectInfo(info))
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	prefix := r.URL.Query().Get("prefix")
	if prefix == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "missing ?prefix=")
		return
	}
	if _, err := s.al.Authorize(ai.creds, prefix, adal.PermRead); err != nil {
		s.fail(w, err)
		return
	}
	infos, err := s.cfg.Layer.List(prefix)
	if err != nil {
		s.fail(w, err)
		return
	}
	// Defense in depth for shared parents: an entry the ACL does not
	// grant this principal never crosses the wire, so List can never
	// leak another community's namespace.
	out := make([]ObjectInfo, 0, len(infos))
	for _, info := range infos {
		if !s.acl.Check(ai.principal, info.Path, adal.PermRead) {
			continue
		}
		out = append(out, s.objectInfo(info))
	}
	writeJSON(w, http.StatusOK, ListResult{Objects: out})
}

func (s *Server) objectInfo(info adal.FileInfo) ObjectInfo {
	oi := ObjectInfo{Path: info.Path, Size: info.Size, ModTime: info.ModTime}
	if ds, ok := s.cfg.Meta.ByPath(info.Path); ok {
		oi.DatasetID = ds.ID
		oi.Project = ds.Project
		oi.Tags = ds.Tags
		oi.Checksum = ds.Checksum
	}
	return oi
}

// ---- metadata endpoints -----------------------------------------------

func (s *Server) findDatasets(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	q := r.URL.Query()
	limit := 0
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad_request", "bad ?limit=")
			return
		}
		limit = n
	}
	query := metadata.Query{
		Project:    q.Get("project"),
		Tags:       splitList(q.Get("tag")),
		PathPrefix: q.Get("prefix"),
	}
	matches := s.cfg.Meta.Find(query)
	out := make([]metadata.Dataset, 0, len(matches))
	for _, ds := range matches {
		if !s.acl.Check(ai.principal, ds.Path, adal.PermRead) {
			continue
		}
		out = append(out, ds)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, DatasetsResult{Datasets: out})
}

func (s *Server) datasetByPath(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	fp := r.URL.Query().Get("path")
	if fp == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "missing ?path=")
		return
	}
	if _, err := s.al.Authorize(ai.creds, fp, adal.PermRead); err != nil {
		s.fail(w, err)
		return
	}
	ds, ok := s.cfg.Meta.ByPath(fp)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "no dataset at "+fp)
		return
	}
	writeJSON(w, http.StatusOK, ds)
}

func (s *Server) tagDataset(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	var req TagRequest
	if !s.decodeJSON(w, r, &req, nil) {
		return
	}
	if _, err := s.al.Authorize(ai.creds, req.Path, adal.PermWrite); err != nil {
		s.fail(w, err)
		return
	}
	ds, ok := s.cfg.Meta.ByPath(req.Path)
	if !ok {
		writeErr(w, http.StatusNotFound, "not_found", "no dataset at "+req.Path)
		return
	}
	var err error
	if strings.HasSuffix(r.URL.Path, "/untag") {
		err = s.cfg.Meta.Untag(ds.ID, req.Tag)
	} else {
		err = s.cfg.Meta.Tag(ds.ID, req.Tag)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	ds, _ = s.cfg.Meta.Get(ds.ID)
	writeJSON(w, http.StatusOK, ds)
}

func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	var req IngestRequest
	var payloads func(io.Reader) error // the JSON shape carries them inside
	if r.Header.Get("Content-Type") == IngestContentType {
		payloads = req.readPayloads
	}
	if !s.decodeJSON(w, r, &req, payloads) {
		return
	}
	if len(req.Objects) == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "empty ingest batch")
		return
	}
	// The handler authorizes and meters; ingest.StoreBatch stores,
	// registers and rolls back the authorized objects as one batch.
	res := IngestResult{Results: make([]IngestObjectResult, len(req.Objects))}
	var objs []*ingest.Object
	var objIdx []int
	for i, obj := range req.Objects {
		fp := path.Clean("/" + strings.TrimPrefix(obj.Path, "/"))
		res.Results[i].Path = fp
		if _, err := s.al.Authorize(ai.creds, fp, adal.PermWrite); err != nil {
			res.Results[i].Error = err.Error()
			continue
		}
		objs = append(objs, &ingest.Object{
			Project: obj.Project,
			Path:    fp,
			Data:    bytes.NewReader(obj.Data),
			Basic:   obj.Basic,
			Tags:    obj.Tags,
		})
		objIdx = append(objIdx, i)
	}
	for j, cr := range ingest.StoreBatch(s.cfg.Layer, s.cfg.Meta, objs) {
		out := &res.Results[objIdx[j]]
		// Bytes the store consumed: all of a stored payload, none of one
		// whose path was already taken.
		data := objs[j].Data.(*bytes.Reader)
		ai.tenant.bytesIn.Add(data.Size() - int64(data.Len()))
		if cr.Err != nil {
			out.Error = cr.Err.Error()
			continue
		}
		out.Size, out.SHA256, out.DatasetID = cr.Dataset.Size, cr.Dataset.Checksum, cr.Dataset.ID
		res.Registered++
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	ai := reqAuth(r)
	writeJSON(w, http.StatusOK, MetricsResult{
		Tenant:   ai.tenant.name,
		Stats:    ai.tenant.stats(),
		Draining: s.draining.Load(),
	})
}

// ---- plumbing ---------------------------------------------------------

// decodeJSON reads a bounded JSON body into v and, when rest is not
// nil, hands rest the bytes after the JSON value under the same bound,
// writing the error envelope itself when either fails.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any, rest func(io.Reader) error) bool {
	body := http.MaxBytesReader(w, r.Body, int64(maxJSONBody))
	dec := json.NewDecoder(body)
	err := dec.Decode(v)
	if err == nil && rest != nil {
		err = rest(io.MultiReader(dec.Buffered(), body))
	}
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		writeErr(w, http.StatusRequestEntityTooLarge, "payload_too_large",
			fmt.Sprintf("request body over %s", maxJSONBody.SI()))
	case err != nil:
		writeErr(w, http.StatusBadRequest, "bad_json", err.Error())
	}
	return err == nil
}

// readPayloads fills a framed manifest's Data from the rest of the
// body: exactly one '\n', the payloads back to back in manifest order,
// then the end of the body. The sizes are checked before anything is
// allocated; the payloads land in one buffer the objects slice.
func (req *IngestRequest) readPayloads(rest io.Reader) error {
	var total int64
	for _, o := range req.Objects {
		switch {
		case o.Data != nil:
			return fmt.Errorf("framed ingest: manifest carries data for %s", o.Path)
		case o.Size < 0:
			return fmt.Errorf("framed ingest: negative size %d for %s", o.Size, o.Path)
		case o.Size > int64(maxJSONBody)-total:
			return &http.MaxBytesError{Limit: int64(maxJSONBody)}
		}
		total += o.Size
	}
	buf := make([]byte, total+2) // '\n', the payloads, and a byte that must not arrive
	n, err := io.ReadFull(rest, buf)
	switch {
	case err != nil && err != io.EOF && err != io.ErrUnexpectedEOF:
		return err
	case n == 0 || buf[0] != '\n':
		return errors.New("framed ingest: manifest not followed by one newline")
	case n < len(buf)-1:
		return fmt.Errorf("framed ingest: body ends %d bytes short", len(buf)-1-n)
	case n == len(buf):
		return errors.New("framed ingest: bytes after the last payload")
	}
	data := buf[1:n]
	for i := range req.Objects {
		size := req.Objects[i].Size
		req.Objects[i].Data, data = data[:size:size], data[size:]
	}
	return nil
}

// fail maps backend errors onto the wire contract.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, adal.ErrDenied):
		writeErr(w, http.StatusForbidden, "denied", err.Error())
	case errors.Is(err, adal.ErrNotFound), errors.Is(err, metadata.ErrNotFound),
		errors.Is(err, adal.ErrNoMount):
		writeErr(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, adal.ErrExists), errors.Is(err, metadata.ErrDuplicate):
		writeErr(w, http.StatusConflict, "conflict", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// bodyReader is a streamed body as its consumer reads it: a PUT's
// request body read by the store, or an object copied onto the
// response. A socket deadline is armed before every chunk, so the
// transfer runs at the slower end's pace (connection-level
// backpressure), but a peer that stalls for streamChunkTimeout loses
// its connection. It keeps the byte count for the tenant's meter and
// the body's own failure for the wire mapping (a client's broken
// upload is a 400, not a 500).
type bodyReader struct {
	r   io.Reader
	arm func() error
	n   int64
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if err := b.arm(); err != nil {
		b.err = err
		return 0, err
	}
	n, err := b.r.Read(p)
	b.n += int64(n)
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// streamBufPool holds the buffers objects are copied onto responses
// through.
var streamBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 128*1024)
		return &b
	},
}

// chunkDeadline returns the function that arms one connection deadline
// (an http.ResponseController's SetReadDeadline or SetWriteDeadline)
// streamChunkTimeout from now. A writer without deadlines (a test
// recorder) streams unguarded.
func chunkDeadline(set func(time.Time) error) func() error {
	return func() error {
		if err := set(time.Now().Add(streamChunkTimeout)); !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	}
}

// parseRange interprets a single-range "bytes=a-b" header against
// size. It returns (-1, 0, true) for malformed specs (RFC 7233:
// ignore and serve the whole body) and ok=false for a well-formed
// but unsatisfiable range.
func parseRange(spec string, size int64) (start, length int64, ok bool) {
	const pfx = "bytes="
	if !strings.HasPrefix(spec, pfx) || strings.Contains(spec, ",") {
		return -1, 0, true
	}
	lo, hi, found := strings.Cut(strings.TrimPrefix(spec, pfx), "-")
	if !found {
		return -1, 0, true
	}
	if lo == "" { // suffix range: last N bytes
		n, err := strconv.ParseInt(hi, 10, 64)
		if err != nil || n <= 0 {
			return -1, 0, true
		}
		if n > size {
			n = size
		}
		return size - n, n, true
	}
	st, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || st < 0 {
		return -1, 0, true
	}
	if st >= size {
		return 0, 0, false
	}
	end := size - 1
	if hi != "" {
		e, err := strconv.ParseInt(hi, 10, 64)
		if err != nil || e < st {
			return -1, 0, true
		}
		if e < end {
			end = e
		}
	}
	return st, end - st + 1, true
}

func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	w.Header().Set("X-LSDF-Retry-After-Ms", strconv.FormatInt(int64(d/time.Millisecond)+1, 10))
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Status: status, Message: msg}})
}

// envelopeWriter guarantees the JSON-error contract for responses the
// handlers never see: the mux's own 404/405 text bodies (and any
// stray http.Error) are replaced by the canonical envelope.
type envelopeWriter struct {
	rw           http.ResponseWriter
	wroteHeader  bool
	suppressBody bool
	status       int // first status written; annotated onto the trace
}

func (ew *envelopeWriter) Header() http.Header { return ew.rw.Header() }

func (ew *envelopeWriter) WriteHeader(code int) {
	if ew.wroteHeader {
		return
	}
	ew.wroteHeader = true
	ew.status = code
	ct := ew.rw.Header().Get("Content-Type")
	if code >= 400 && !strings.HasPrefix(ct, "application/json") {
		ew.suppressBody = true
		slug := strings.ReplaceAll(strings.ToLower(http.StatusText(code)), " ", "_")
		body, _ := json.Marshal(ErrorEnvelope{Error: ErrorBody{
			Code: slug, Status: code, Message: http.StatusText(code),
		}})
		body = append(body, '\n')
		ew.rw.Header().Set("Content-Type", "application/json")
		ew.rw.Header().Del("X-Content-Type-Options")
		ew.rw.Header().Set("Content-Length", strconv.Itoa(len(body)))
		ew.rw.WriteHeader(code)
		_, _ = ew.rw.Write(body)
		return
	}
	ew.rw.WriteHeader(code)
}

func (ew *envelopeWriter) Write(p []byte) (int, error) {
	if !ew.wroteHeader {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.suppressBody {
		return len(p), nil
	}
	return ew.rw.Write(p)
}

// Unwrap lets http.NewResponseController reach the real connection
// for the per-chunk deadlines.
func (ew *envelopeWriter) Unwrap() http.ResponseWriter { return ew.rw }
