package gateway_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/mapreduce"
	"repro/internal/mrpc"
	"repro/internal/units"
)

// startGateway assembles a full facility, fronts it with a gateway
// and serves it over a real HTTP listener. Every conformance test
// goes through this stack — the same one cmd/lsdfd runs.
func startGateway(t testing.TB, fopts facility.Options, cfg gateway.Config) (*facility.Facility, *gateway.Server, *httptest.Server) {
	t.Helper()
	if fopts.DFSNodes == 0 {
		fopts.DFSNodes = 4
	}
	if fopts.DFSBlockSize == 0 {
		fopts.DFSBlockSize = 256 * units.KiB
	}
	fac, err := facility.New(fopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fac.Close)
	srv, err := gateway.ForFacility(fac, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return fac, srv, hs
}

func newClient(t testing.TB, hs *httptest.Server, token string, opts ...client.Options) *client.Client {
	t.Helper()
	c, err := client.New(hs.URL, token, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// startJobGateway serves a gateway whose analysis cluster is the
// test's own: every submitted job runs run, so a test decides when a
// job ends and how. Tenant "bio" (token "tb") owns /hdfs/bio.
func startJobGateway(t testing.TB, run func() (*mapreduce.Result, error), more ...gateway.Tenant) (*gateway.Server, *httptest.Server) {
	t.Helper()
	fac, err := facility.New(facility.Options{DFSNodes: 4, DFSBlockSize: 256 * units.KiB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fac.Close)
	srv, err := gateway.New(gateway.Config{
		Layer: fac.Layer, Meta: fac.Meta,
		Tenants: append([]gateway.Tenant{{Name: "bio", Token: "tb", Prefixes: []string{"/hdfs/bio"}, RPS: 1e6}}, more...),
		RunSpec: func(mrpc.JobSpec, string) (func() (*mapreduce.Result, error), error) { return run, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

var bioJob = gateway.JobRequest{Job: "any", Inputs: []string{"/bio/in"}, OutputDir: "/bio/out"}

// askJob is one GET /v1/jobs/{id} with a raw wait parameter, bounded
// well inside gateway.MaxJobWait: an ask that parks when it must not
// (or is not released when it must be) ends in the context's error.
func askJob(hs *httptest.Server, token, id, wait string) (int, gateway.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), gateway.MaxJobWait/2)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+"/v1/jobs/"+id+"?wait="+wait, nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, gateway.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st gateway.JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st, nil
}

// waitInFlight blocks until the tenant holds exactly n admitted
// requests — a parked job wait is one.
func waitInFlight(t *testing.T, srv *gateway.Server, tenant string, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats()[tenant].InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s holds %d requests, want %d", tenant, srv.Stats()[tenant].InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitJobLongPoll: WaitJob parks at the gateway and is answered by
// the job's end — here a failure, whose error it must carry — while a
// malformed or negative wait is ignored and answers at once.
func TestWaitJobLongPoll(t *testing.T) {
	release := make(chan struct{})
	srv, hs := startJobGateway(t, func() (*mapreduce.Result, error) {
		<-release
		return nil, errors.New("reducer exploded")
	})
	c := newClient(t, hs, "tb", client.Options{MaxRetries: -1})
	js, err := c.SubmitJob(context.Background(), bioJob)
	if err != nil {
		t.Fatal(err)
	}
	for _, wait := range []string{"soon", "-5", "0", ""} {
		if code, st, err := askJob(hs, "tb", js.ID, wait); err != nil || code != 200 || st.State != gateway.JobRunning {
			t.Fatalf("wait=%q on a running job: %d %+v %v, want 200 running at once", wait, code, st, err)
		}
	}
	type outcome struct {
		st  gateway.JobStatus
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := c.WaitJob(context.Background(), js.ID, time.Hour) // one ask must do
		done <- outcome{st, err}
	}()
	waitInFlight(t, srv, "bio", 1)
	select {
	case o := <-done:
		t.Fatalf("WaitJob returned %+v, %v while the job was running", o.st, o.err)
	default:
	}
	close(release)
	o := <-done
	if o.err != nil || o.st.State != gateway.JobFailed || !strings.Contains(o.st.Error, "reducer exploded") {
		t.Fatalf("WaitJob = %+v, %v; want failed with the job's error", o.st, o.err)
	}
}

// TestJobHistoryIsBounded: the gateway answers for the last JobHistory
// finished jobs and forgets older ones.
func TestJobHistoryIsBounded(t *testing.T) {
	_, hs := startJobGateway(t, func() (*mapreduce.Result, error) { return &mapreduce.Result{}, nil })
	c := newClient(t, hs, "tb", client.Options{MaxRetries: -1})
	ctx := context.Background()
	var ids []string
	for i := 0; i < gateway.JobHistory+40; i++ {
		js, err := c.SubmitJob(ctx, bioJob)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := c.WaitJob(ctx, js.ID, time.Millisecond); err != nil || st.State != gateway.JobDone {
			t.Fatalf("job %s: %+v %v", js.ID, st, err)
		}
		ids = append(ids, js.ID)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != gateway.JobHistory {
		t.Fatalf("gateway lists %d jobs (%v), want %d", len(jobs), err, gateway.JobHistory)
	}
	if _, err := c.Job(ctx, ids[0]); !client.IsNotFound(err) {
		t.Errorf("oldest job still answered: %v", err)
	}
	if st, err := c.Job(ctx, ids[len(ids)-1]); err != nil || st.State != gateway.JobDone {
		t.Errorf("newest job: %+v %v", st, err)
	}
}

// TestConformanceEndToEnd drives the whole facility through the real
// client against a served lsdfd: batched ingest, stat, list, full
// and range reads (byte-identical to direct in-process reads through
// the same layer), tagging, metadata queries, job submission and
// result retrieval.
func TestConformanceEndToEnd(t *testing.T) {
	fac, _, hs := startGateway(t,
		facility.Options{Sites: []string{"gridka", "desy"}, ReadCacheMemory: 8 * units.MiB},
		gateway.Config{Tenants: []gateway.Tenant{{
			Name: "bio", Token: "bio-secret",
			Prefixes: []string{"/sites/bio", "/hdfs"},
			RPS:      10000, MaxInFlight: 64,
		}}},
	)
	c := newClient(t, hs, "bio-secret")
	ctx := context.Background()

	// Batched ingest: the DAQ path. One request, every object stored
	// and registered.
	var objs []gateway.IngestObject
	payload := map[string][]byte{}
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/sites/bio/run1/img-%03d.raw", i)
		data := bytes.Repeat([]byte{byte(i)}, 512+i*37)
		payload[p] = data
		objs = append(objs, gateway.IngestObject{
			Path: p, Project: "zebrafish", Data: data,
			Basic: map[string]string{"camera": "spim-1"},
			Tags:  []string{"raw"},
		})
	}
	ing, err := c.Ingest(ctx, objs)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if ing.Registered != len(objs) {
		t.Fatalf("registered %d/%d: %+v", ing.Registered, len(objs), ing.Results)
	}
	for _, r := range ing.Results {
		if r.Error != "" || r.DatasetID == "" {
			t.Fatalf("ingest result: %+v", r)
		}
		want := sha256.Sum256(payload[r.Path])
		if r.SHA256 != hex.EncodeToString(want[:]) {
			t.Fatalf("ingest checksum mismatch for %s", r.Path)
		}
	}

	// Stat joins namespace and metadata.
	info, err := c.Stat(ctx, "/sites/bio/run1/img-007.raw")
	if err != nil {
		t.Fatal(err)
	}
	if info.Project != "zebrafish" || len(info.Tags) == 0 || info.DatasetID == "" {
		t.Fatalf("stat not joined with metadata: %+v", info)
	}
	if int(info.Size) != len(payload["/sites/bio/run1/img-007.raw"]) {
		t.Fatalf("stat size = %d", info.Size)
	}

	// List sees every ingested object.
	entries, err := c.List(ctx, "/sites/bio/run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(objs) {
		t.Fatalf("list: %d entries, want %d", len(entries), len(objs))
	}

	// Reads over the wire are byte-identical to direct reads through
	// the same federated layer (cache, federation and all).
	for p, want := range payload {
		got, err := c.ReadObject(ctx, p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("gateway read of %s differs from ingested bytes", p)
		}
		rc, err := fac.Layer.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, direct) {
			t.Fatalf("gateway read of %s differs from direct layer read", p)
		}
	}

	// Range reads: offset+length, suffix, and to-end all slice the
	// same bytes the full read returned.
	rp := "/sites/bio/run1/img-013.raw"
	full := payload[rp]
	for _, rr := range []struct{ off, n int64 }{{0, 10}, {100, 57}, {int64(len(full)) - 9, -1}} {
		rc, err := c.GetRange(ctx, rp, rr.off, rr.n)
		if err != nil {
			t.Fatalf("range %+v: %v", rr, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		end := int64(len(full))
		if rr.n >= 0 && rr.off+rr.n < end {
			end = rr.off + rr.n
		}
		if !bytes.Equal(got, full[rr.off:end]) {
			t.Fatalf("range %+v: got %d bytes, mismatch", rr, len(got))
		}
	}

	// PUT streams a larger object and registers it in one request.
	big := bytes.Repeat([]byte("large-streamed-object "), 64*1024) // ~1.3 MiB
	pr, err := c.PutObject(ctx, "/sites/bio/run1/big.raw", big, "zebrafish", "raw", "stitched")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := sha256.Sum256(big)
	if pr.SHA256 != hex.EncodeToString(wantSum[:]) || pr.DatasetID == "" {
		t.Fatalf("put result: %+v", pr)
	}
	back, err := c.ReadObject(ctx, "/sites/bio/run1/big.raw")
	if err != nil || !bytes.Equal(back, big) {
		t.Fatalf("big object round trip failed: err=%v len=%d", err, len(back))
	}

	// Metadata plane: tag, query, untag.
	ds, err := c.Tag(ctx, rp, "analyze")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.HasTag("analyze") {
		t.Fatalf("tag not applied: %+v", ds)
	}
	found, err := c.Find(ctx, client.FindQuery{Project: "zebrafish", Tags: []string{"analyze"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].Path != rp {
		t.Fatalf("find by tag: %+v", found)
	}
	if _, err := c.Untag(ctx, rp, "analyze"); err != nil {
		t.Fatal(err)
	}

	// Analysis plane: stage inputs on the cluster, run wordcount,
	// read the reduced output back through the gateway.
	if _, err := c.PutObject(ctx, "/hdfs/books/a.txt", []byte("to be or not to be\n"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutObject(ctx, "/hdfs/books/b.txt", []byte("be the change\n"), ""); err != nil {
		t.Fatal(err)
	}
	js, err := c.SubmitJob(ctx, gateway.JobRequest{
		Job: "wordcount", Inputs: []string{"/books/a.txt", "/books/b.txt"}, OutputDir: "/wc-out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if js.State != gateway.JobRunning || js.ID == "" {
		t.Fatalf("submit: %+v", js)
	}
	done, err := c.WaitJob(ctx, js.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != gateway.JobDone {
		t.Fatalf("job: %+v", done)
	}
	counts := map[string]string{}
	for _, f := range done.OutputFiles {
		out, err := c.ReadObject(ctx, "/hdfs"+f)
		if err != nil {
			t.Fatalf("read job output %s: %v", f, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if k, v, ok := strings.Cut(line, "\t"); ok {
				counts[k] = v
			}
		}
	}
	if counts["be"] != "3" || counts["to"] != "2" || counts["change"] != "1" {
		t.Fatalf("wordcount output: %v", counts)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs list: %v %+v", err, jobs)
	}

	// Delete removes object and dataset together.
	rm, err := c.Remove(ctx, rp)
	if err != nil || !rm.Removed || rm.DatasetID == "" {
		t.Fatalf("remove: %v %+v", err, rm)
	}
	if _, err := c.Stat(ctx, rp); !client.IsNotFound(err) {
		t.Fatalf("stat after remove: %v", err)
	}
	if _, err := c.Dataset(ctx, rp); !client.IsNotFound(err) {
		t.Fatalf("dataset after remove: %v", err)
	}

	// Metrics reflect the traffic.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tenant != "bio" || m.Stats.Requests == 0 || m.Stats.BytesOut == 0 || m.Stats.BytesIn == 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestErrorContract pins the wire contract: every failure — auth,
// authz, missing objects, unknown routes, bad methods, bad JSON —
// is a JSON envelope with matching status.
func TestErrorContract(t *testing.T) {
	_, _, hs := startGateway(t, facility.Options{},
		gateway.Config{Tenants: []gateway.Tenant{{Name: "bio", Token: "tkn", Prefixes: []string{"/ddn/bio"}}}})
	ctx := context.Background()
	noRetry := client.Options{MaxRetries: -1}

	c := newClient(t, hs, "tkn", noRetry)
	bad := newClient(t, hs, "wrong-token", noRetry)

	checks := []struct {
		name   string
		err    error
		status int
		code   string
	}{
		{"bad token", errOf(bad.Health(ctx)), 0, ""}, // healthz is pre-auth: must succeed
		{"unauthenticated stat", errOnly(bad.Stat(ctx, "/ddn/bio/x")), 401, "unauthenticated"},
		{"denied path", errOnly(c.Stat(ctx, "/ddn/other/x")), 403, "denied"},
		{"missing object", errOnly(c.Stat(ctx, "/ddn/bio/nope")), 404, "not_found"},
		{"missing dataset", errOnly(c.Dataset(ctx, "/ddn/bio/nope")), 404, "not_found"},
		// /x and /y are outside the tenant's grant: an unknown template
		// 404s before authorization, a known one reaches it.
		{"unknown job template", errOnly(c.SubmitJob(ctx, gateway.JobRequest{
			Job: "no-such", Inputs: []string{"/x"}, OutputDir: "/y"})), 404, "unknown_job"},
		{"known job, foreign paths", errOnly(c.SubmitJob(ctx, gateway.JobRequest{
			Job: "wordcount", Inputs: []string{"/x"}, OutputDir: "/y"})), 403, "denied"},
	}
	for _, tc := range checks {
		if tc.status == 0 {
			if tc.err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, tc.err)
			}
			continue
		}
		var ae *client.APIError
		if !asAPIErr(tc.err, &ae) {
			t.Errorf("%s: error %v is not an APIError", tc.name, tc.err)
			continue
		}
		if ae.Status != tc.status || ae.Code != tc.code {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, ae.Status, ae.Code, tc.status, tc.code)
		}
	}

	// Raw HTTP checks for responses the client never generates:
	// unknown routes, bad methods and garbage JSON must still be
	// enveloped.
	raw := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tkn")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/v1/no-such-route", "", 404},
		{"POST", "/v1/objects/ddn/bio/x", "", 405},
		{"POST", "/v1/ingest", "{not json", 400},
		{"GET", "/totally/elsewhere", "", 404},
	} {
		resp := raw(tc.method, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		assertEnvelope(t, resp)
	}

	// Unsatisfiable range: 416 envelope. Malformed range: full body.
	if _, err := c.PutObject(ctx, "/ddn/bio/r.raw", []byte("0123456789"), ""); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", hs.URL+"/v1/objects/ddn/bio/r.raw", nil)
	req.Header.Set("Authorization", "Bearer tkn")
	req.Header.Set("Range", "bytes=100-200")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("unsatisfiable range: %d", resp.StatusCode)
	}
	assertEnvelope(t, resp)
	req.Header.Set("Range", "bytes=garbage")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "0123456789" {
		t.Errorf("malformed range: %d %q (want full body per RFC 7233)", resp.StatusCode, body)
	}
}

// TestRateLimitHeaders pins the overload wire shape: a dry token
// bucket answers 429 with an honest Retry-After, and the client's
// retry loop turns that into a delayed success.
func TestRateLimitHeaders(t *testing.T) {
	_, _, hs := startGateway(t, facility.Options{},
		gateway.Config{Tenants: []gateway.Tenant{{
			Name: "slow", Token: "s", Prefixes: []string{"/ddn"}, RPS: 5, Burst: 2, MaxInFlight: 8,
		}}})

	req := func() *http.Response {
		r, _ := http.NewRequest("GET", hs.URL+"/v1/metrics", nil)
		r.Header.Set("Authorization", "Bearer s")
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	var throttled *http.Response
	for i := 0; i < 10; i++ {
		if r := req(); r.StatusCode == http.StatusTooManyRequests {
			throttled = r
			break
		}
	}
	if throttled == nil {
		t.Fatal("burst of 10 at burst=2 never hit 429")
	}
	if throttled.Header.Get("Retry-After") == "" || throttled.Header.Get("X-LSDF-Retry-After-Ms") == "" {
		t.Fatalf("429 without Retry-After hints: %+v", throttled.Header)
	}

	// The client retries through it: a burst of sequential calls all
	// eventually succeed, slower but never failing.
	c := newClient(t, hs, "s", client.Options{MaxRetries: 8, Backoff: 5 * time.Millisecond})
	for i := 0; i < 8; i++ {
		if _, err := c.Metrics(context.Background()); err != nil {
			t.Fatalf("retrying client saw hard failure: %v", err)
		}
	}
}

func errOnly[T any](_ T, err error) error { return err }
func errOf(err error) error               { return err }

func asAPIErr(err error, ae **client.APIError) bool {
	return err != nil && errors.As(err, ae)
}

func assertEnvelope(t *testing.T, resp *http.Response) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	var env gateway.ErrorEnvelope
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &env); err != nil {
		t.Errorf("error body is not a JSON envelope: %q", data)
		return
	}
	if env.Error.Status != resp.StatusCode || env.Error.Code == "" {
		t.Errorf("envelope %+v does not match status %d", env.Error, resp.StatusCode)
	}
}

// openCounter counts the Opens of a site's backend.
type openCounter struct {
	adal.Backend
	opens atomic.Int64
}

func (o *openCounter) Open(path string) (io.ReadCloser, error) {
	o.opens.Add(1)
	return o.Backend.Open(path)
}

// TestRangeIsValidatedBeforeAnythingIsOpened: an open is a cache fill
// and a federated dial, so a request answered 416 must open nothing at
// any site — and a satisfiable range opens the nearest site once and
// is then served from the cache.
func TestRangeIsValidatedBeforeAnythingIsOpened(t *testing.T) {
	fac, _, hs := startGateway(t,
		facility.Options{Sites: []string{"near", "far"}, MinReplicas: 2, ReadCacheMemory: 8 * units.MiB},
		gateway.Config{Tenants: []gateway.Tenant{{Name: "bio", Token: "tkn", Prefixes: []string{"/sites/bio"}, RPS: 10000}}})
	c := newClient(t, hs, "tkn")
	ctx := context.Background()
	data := bytes.Repeat([]byte("0123456789abcdef"), 40_000) // 640 000 bytes: three blocks
	if _, err := c.PutObject(ctx, "/sites/bio/vol", data, ""); err != nil {
		t.Fatal(err)
	}
	fac.Replicator.Wait()
	var sites []*openCounter
	for _, s := range fac.FedSites {
		oc := &openCounter{Backend: s.Backend}
		s.Backend = oc
		sites = append(sites, oc)
	}
	opens := func() (n int64) {
		for _, oc := range sites {
			n += oc.opens.Load()
		}
		return n
	}

	req, _ := http.NewRequest("GET", hs.URL+"/v1/objects/sites/bio/vol", nil)
	req.Header.Set("Authorization", "Bearer tkn")
	req.Header.Set("Range", "bytes=640000-640099")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || resp.Header.Get("Content-Range") != "bytes */640000" {
		t.Fatalf("unsatisfiable range: %d, Content-Range %q", resp.StatusCode, resp.Header.Get("Content-Range"))
	}
	assertEnvelope(t, resp)
	if n := opens(); n != 0 {
		t.Fatalf("a 416 opened the object at a site %d time(s)", n)
	}

	for round, wantOpens := range []int64{1, 1} {
		rc, err := c.GetRange(ctx, "/sites/bio/vol", 639_000, 5_000) // clamped to the last 1000 bytes
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, data[639_000:]) {
			t.Fatalf("round %d: ranged read returned %d bytes (err %v), want the last 1000", round, len(got), err)
		}
		if n := opens(); n != wantOpens {
			t.Fatalf("round %d: %d site opens, want %d", round, n, wantOpens)
		}
	}
	if st := fac.ReadCache.Stats(); st.FillBytes != 640_000-2*256*1024 || st.MemHits != 1 {
		t.Fatalf("cache fetched %d bytes and served %d hits; want the last block alone, then a hit", st.FillBytes, st.MemHits)
	}
}
