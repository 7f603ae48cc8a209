package gateway_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/facility"
	"repro/internal/gateway"
)

// fuzzServer is built once per fuzz process: a real facility behind a
// real gateway, shared across executions the way a long-lived lsdfd
// is shared across requests.
var (
	fuzzOnce sync.Once
	fuzzSrv  *gateway.Server
)

func fuzzGateway(tb testing.TB) *gateway.Server {
	fuzzOnce.Do(func() {
		fac, err := facility.New(facility.Options{DFSNodes: 2})
		if err != nil {
			tb.Fatal(err)
		}
		srv, err := gateway.ForFacility(fac, gateway.Config{
			Tenants: []gateway.Tenant{{
				Name: "fuzz", Token: "fuzz-token", Prefixes: []string{"/ddn/fuzz"},
				RPS: 1e9, Burst: 1 << 30, MaxInFlight: 1 << 20,
			}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		fuzzSrv = srv
	})
	return fuzzSrv
}

// FuzzGatewayRequest throws arbitrary methods, paths, headers and
// bodies at the front door and pins the wire contract: the server
// never panics, and every response with status >= 400 is a
// well-formed JSON error envelope whose status matches the response.
func FuzzGatewayRequest(f *testing.F) {
	seeds := []struct {
		method, path, auth, ctype, rng, body string
	}{
		{"GET", "/v1/healthz", "", "", "", ""},
		{"GET", "/v1/objects/ddn/fuzz/x", "Bearer fuzz-token", "", "", ""},
		{"PUT", "/v1/objects/ddn/fuzz/x?project=p&tags=a,b", "Bearer fuzz-token", "application/octet-stream", "", "payload"},
		{"GET", "/v1/objects/ddn/fuzz/x", "Bearer fuzz-token", "", "bytes=2-5", ""},
		{"GET", "/v1/objects/ddn/fuzz/x", "Bearer fuzz-token", "", "bytes=-3", ""},
		{"GET", "/v1/objects/ddn/fuzz/x", "Bearer fuzz-token", "", "bytes=99999-", ""},
		{"GET", "/v1/objects/../../etc/passwd", "Bearer fuzz-token", "", "", ""},
		{"GET", "/v1/list?prefix=/ddn/fuzz", "Bearer fuzz-token", "", "", ""},
		{"GET", "/v1/stat/ddn/fuzz/x", "Bearer wrong", "", "", ""},
		{"POST", "/v1/ingest", "Bearer fuzz-token", "application/json", "", `{"objects":[{"path":"/ddn/fuzz/i","project":"p","data":"aGk="}]}`},
		{"POST", "/v1/ingest", "Bearer fuzz-token", "application/json", "", `{"objects":`},
		{"POST", "/v1/jobs", "Bearer fuzz-token", "application/json", "", `{"job":"wordcount","inputs":["/x"],"output_dir":"/y"}`},
		{"POST", "/v1/datasets/tag", "Bearer fuzz-token", "application/json", "", `{"path":"/ddn/fuzz/x","tag":"t"}`},
		{"DELETE", "/v1/objects/ddn/fuzz/x", "Bearer fuzz-token", "", "", ""},
		{"GET", "/v1/datasets?tag=a&limit=-3", "Bearer fuzz-token", "", "", ""},
		{"OPTIONS", "/v1/objects/ddn/fuzz/x", "Bearer fuzz-token", "", "", ""},
		{"GET", "/nowhere", "", "", "", ""},
		{"TRACE", "\x00", "Bearer \xff\xfe", "\n", "bytes=,,,", "\x00\x01\x02"},
		// Framed ingest bodies: valid, truncated, trailing bytes, over the
		// cap, negative size.
		{"POST", "/v1/ingest", "Bearer fuzz-token", gateway.IngestContentType, "", framedSeed(2) + "\nhi"},
		{"POST", "/v1/ingest", "Bearer fuzz-token", gateway.IngestContentType, "", framedSeed(5) + "\nhi"},
		{"POST", "/v1/ingest", "Bearer fuzz-token", gateway.IngestContentType, "", framedSeed(2) + "\nhi!"},
		{"POST", "/v1/ingest", "Bearer fuzz-token", gateway.IngestContentType, "", framedSeed(9<<20) + "\n"},
		{"POST", "/v1/ingest", "Bearer fuzz-token", gateway.IngestContentType, "", framedSeed(-1) + "\n"},
	}
	for _, s := range seeds {
		f.Add(s.method, s.path, s.auth, s.ctype, s.rng, s.body)
	}

	f.Fuzz(func(t *testing.T, method, path, auth, ctype, rng, body string) {
		srv := fuzzGateway(t)

		// Requests the Go HTTP stack itself refuses to construct are
		// outside the contract — a real listener would have rejected
		// them before the gateway saw anything.
		req, ok := buildRequest(method, path, body)
		if !ok {
			t.Skip()
		}
		setHeader(req, "Authorization", auth)
		setHeader(req, "Content-Type", ctype)
		setHeader(req, "Range", rng)

		rec := httptest.NewRecorder()
		func() {
			defer func() {
				if p := recover(); p != nil && p != http.ErrAbortHandler {
					t.Fatalf("gateway panicked on %s %q: %v", method, path, p)
				}
			}()
			srv.ServeHTTP(rec, req)
		}()

		resp := rec.Result()
		if resp.StatusCode < 400 {
			return
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s %q -> %d with Content-Type %q, want JSON envelope", method, path, resp.StatusCode, ct)
		}
		var env gateway.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %q -> %d with non-envelope body %q: %v", method, path, resp.StatusCode, rec.Body.String(), err)
		}
		if env.Error.Status != resp.StatusCode {
			t.Fatalf("%s %q: envelope status %d != response status %d", method, path, env.Error.Status, resp.StatusCode)
		}
		if env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("%s %q: envelope missing code/message: %+v", method, path, env.Error)
		}
	})
}

// framedSeed is a framed ingest manifest of one object of the given
// size, without the newline and payloads that follow it.
func framedSeed(size int) string {
	return fmt.Sprintf(`{"objects":[{"path":"/ddn/fuzz/f","project":"p","size":%d}]}`, size)
}

// buildRequest constructs the request, absorbing the panics
// httptest.NewRequest raises on inputs no wire request could carry.
func buildRequest(method, path, body string) (req *http.Request, ok bool) {
	defer func() {
		if recover() != nil {
			req, ok = nil, false
		}
	}()
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return httptest.NewRequest(method, path, strings.NewReader(body)), true
}

// setHeader skips values net/http would refuse to serialize; a real
// client could never deliver them.
func setHeader(req *http.Request, key, val string) {
	if val == "" {
		return
	}
	defer func() { recover() }()
	req.Header.Set(key, val)
}
