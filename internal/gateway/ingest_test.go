package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/units"
)

// startBioGateway serves a fresh facility to tenant "bio" (token
// "tkn"), which may write under /ddn/bio only.
func startBioGateway(t *testing.T) (*facility.Facility, *gateway.Server, *httptest.Server) {
	t.Helper()
	return startGateway(t, facility.Options{}, gateway.Config{Tenants: []gateway.Tenant{{
		Name: "bio", Token: "tkn", Prefixes: []string{"/ddn/bio"}, RPS: 1e6, MaxInFlight: 64,
	}}})
}

// postIngest posts a raw /v1/ingest body as tenant "bio".
func postIngest(t *testing.T, hs *httptest.Server, ctype string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer tkn")
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestFramedMatchesJSON posts one batch as JSON to one fresh
// gateway and framed (through the client) to another. The batch holds
// a path outside the tenant's prefixes, a path that already exists, a
// zero-length object and a repeated path; both gateways must answer
// the same IngestResult, store the same bytes and meter the same
// bytes_in.
func TestIngestFramedMatchesJSON(t *testing.T) {
	ctx := context.Background()
	batch := []gateway.IngestObject{
		{Path: "/ddn/bio/run/a.raw", Project: "p", Data: []byte("alpha payload"), Tags: []string{"raw"}},
		{Path: "/ddn/other/x.raw", Project: "p", Data: []byte("not yours")},
		{Path: "/ddn/bio/run/exists.raw", Project: "p", Data: []byte("second writer")},
		{Path: "/ddn/bio/run/empty.raw", Project: "p", Data: nil, Basic: map[string]string{"k": "v"}},
		{Path: "/ddn/bio/run/a.raw", Project: "p", Data: []byte("repeated path, other bytes")},
		{Path: "/ddn/bio/run/b.raw", Project: "q", Data: bytes.Repeat([]byte{0, '\n', 0xff}, 4000)},
	}
	type side struct {
		res     gateway.IngestResult
		srv     *gateway.Server
		c       *client.Client
		bytesIn int64
	}
	run := func(post func(*testing.T, *httptest.Server, *client.Client) gateway.IngestResult) side {
		_, srv, hs := startBioGateway(t)
		c := newClient(t, hs, "tkn", client.Options{MaxRetries: -1})
		if _, err := c.PutObject(ctx, "/ddn/bio/run/exists.raw", []byte("first writer"), ""); err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()["bio"].BytesIn
		res := post(t, hs, c)
		return side{res: res, srv: srv, c: c, bytesIn: srv.Stats()["bio"].BytesIn - before}
	}
	asJSON := run(func(t *testing.T, hs *httptest.Server, _ *client.Client) gateway.IngestResult {
		body, err := json.Marshal(gateway.IngestRequest{Objects: batch})
		if err != nil {
			t.Fatal(err)
		}
		resp := postIngest(t, hs, "application/json", body)
		defer resp.Body.Close()
		var res gateway.IngestResult
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&res) != nil {
			t.Fatalf("JSON ingest: status %d", resp.StatusCode)
		}
		return res
	})
	asFramed := run(func(t *testing.T, _ *httptest.Server, c *client.Client) gateway.IngestResult {
		res, err := c.Ingest(ctx, batch)
		if err != nil {
			t.Fatalf("framed ingest: %v", err)
		}
		return res
	})

	strip := func(res gateway.IngestResult) gateway.IngestResult {
		out := gateway.IngestResult{Registered: res.Registered}
		for _, r := range res.Results {
			if (r.DatasetID == "") != (r.Error != "") {
				t.Fatalf("result %+v: a dataset ID exactly when there is no error", r)
			}
			r.DatasetID = ""
			out.Results = append(out.Results, r)
		}
		return out
	}
	if j, f := strip(asJSON.res), strip(asFramed.res); !reflect.DeepEqual(j, f) {
		t.Fatalf("the two body shapes disagree:\n json   %+v\n framed %+v", j, f)
	}
	if asJSON.res.Registered != 3 {
		t.Fatalf("registered %d, want 3 (a, empty, b): %+v", asJSON.res.Registered, asJSON.res.Results)
	}
	for i, want := range []bool{true, false, false, true, false, true} {
		if got := asJSON.res.Results[i].Error == ""; got != want {
			t.Fatalf("object %d (%s): stored %v, want %v: %+v", i, batch[i].Path, got, want, asJSON.res.Results[i])
		}
	}
	if asJSON.bytesIn != asFramed.bytesIn {
		t.Fatalf("bytes_in: JSON %d, framed %d", asJSON.bytesIn, asFramed.bytesIn)
	}
	for _, p := range []string{"/ddn/bio/run/a.raw", "/ddn/bio/run/exists.raw", "/ddn/bio/run/empty.raw", "/ddn/bio/run/b.raw"} {
		j, errJ := asJSON.c.ReadObject(ctx, p)
		f, errF := asFramed.c.ReadObject(ctx, p)
		if errJ != nil || errF != nil || !bytes.Equal(j, f) {
			t.Fatalf("%s reads back differently: JSON %q (%v), framed %q (%v)", p, j, errJ, f, errF)
		}
	}
}

// TestIngestFramedMalformed: every malformed framed body answers an
// error envelope and stores and registers nothing.
func TestIngestFramedMalformed(t *testing.T) {
	fac, _, hs := startBioGateway(t)
	c := newClient(t, hs, "tkn", client.Options{MaxRetries: -1})
	if _, err := c.PutObject(context.Background(), "/ddn/bio/seed.raw", []byte("seed"), "p"); err != nil {
		t.Fatal(err)
	}
	state := func() (int, []string) {
		infos, err := fac.Layer.List("/ddn")
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, fi := range infos {
			paths = append(paths, fi.Path)
		}
		return fac.Meta.Count(), paths
	}
	count0, list0 := state()

	one := func(size int64, extra string) string {
		return fmt.Sprintf(`{"objects":[{"path":"/ddn/bio/x.raw","project":"p","size":%d%s}]}`, size, extra)
	}
	two := func(a, b int64) string {
		return fmt.Sprintf(`{"objects":[{"path":"/ddn/bio/x.raw","project":"p","size":%d},`+
			`{"path":"/ddn/bio/y.raw","project":"p","size":%d}]}`, a, b)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"truncated payload", []byte(one(5, "") + "\nabc"), http.StatusBadRequest},
		{"one trailing byte", []byte(one(3, "") + "\nabcd"), http.StatusBadRequest},
		{"negative size", []byte(two(3, -1) + "\nab"), http.StatusBadRequest},
		{"sizes over the cap", []byte(two(int64(8*units.MiB)-1, 2) + "\nab"), http.StatusRequestEntityTooLarge},
		{"data inside the manifest", []byte(one(2, `,"data":"aGk="`) + "\nhi"), http.StatusBadRequest},
		{"manifest without its newline", []byte(one(2, "") + "hi"), http.StatusBadRequest},
		{"another byte for the newline", []byte(one(2, "") + " hi"), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postIngest(t, hs, gateway.IngestContentType, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
			assertEnvelope(t, resp)
			if count, list := state(); count != count0 || !reflect.DeepEqual(list, list0) {
				t.Errorf("a rejected body changed the facility: %d datasets %v, was %d %v", count, list, count0, list0)
			}
		})
	}

	// The same harness sees a well-formed body land.
	resp := postIngest(t, hs, gateway.IngestContentType, []byte(one(2, "")+"\nhi"))
	resp.Body.Close()
	if count, _ := state(); resp.StatusCode != http.StatusOK || count != count0+1 {
		t.Fatalf("well-formed framed body: status %d, %d datasets (was %d)", resp.StatusCode, count, count0)
	}
}

// TestGetRangeEdges: a zero-length range reads nothing and sends no
// request; a negative offset is an error, never the whole object.
func TestGetRangeEdges(t *testing.T) {
	_, srv, hs := startBioGateway(t)
	c := newClient(t, hs, "tkn", client.Options{MaxRetries: -1})
	ctx := context.Background()
	if _, err := c.PutObject(ctx, "/ddn/bio/r.raw", []byte("0123456789"), ""); err != nil {
		t.Fatal(err)
	}
	requests := srv.Stats()["bio"].Requests
	for _, off := range []int64{0, 4, 10} {
		rc, err := c.GetRange(ctx, "/ddn/bio/r.raw", off, 0)
		if err != nil {
			t.Fatalf("GetRange(%d, 0): %v", off, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || len(got) != 0 {
			t.Fatalf("GetRange(%d, 0) read %q (%v), want nothing", off, got, err)
		}
	}
	if n := srv.Stats()["bio"].Requests; n != requests {
		t.Fatalf("zero-length ranges sent %d requests, want none", n-requests)
	}
	for _, n := range []int64{-1, 0, 3} {
		if rc, err := c.GetRange(ctx, "/ddn/bio/r.raw", -2, n); err == nil {
			got, _ := io.ReadAll(rc)
			rc.Close()
			t.Fatalf("GetRange(-2, %d) read %q, want an error", n, got)
		}
	}
	// The ranges around them still slice the object.
	rc, err := c.GetRange(ctx, "/ddn/bio/r.raw", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != "4" {
		t.Fatalf("GetRange(4, 1) = %q", got)
	}
}
