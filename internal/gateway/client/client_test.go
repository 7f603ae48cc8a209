package client_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/gateway/client"
)

// TestIngestSendsNoBase64: Ingest sends the framed body — the framed
// content type, a manifest with each object's size and no data, one
// newline, then the payloads raw — and never their base64. A 429
// replays the same body.
func TestIngestSendsNoBase64(t *testing.T) {
	var ctype string
	var bodies [][]byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctype = r.Header.Get("Content-Type")
		body, _ := io.ReadAll(r.Body)
		if r.ContentLength != int64(len(body)) {
			t.Errorf("Content-Length %d for a %d-byte body", r.ContentLength, len(body))
		}
		if bodies = append(bodies, body); len(bodies) == 1 {
			w.Header().Set("X-LSDF-Retry-After-Ms", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"results":[],"registered":2}`))
	}))
	defer hs.Close()
	c, err := client.New(hs.URL, "tkn", client.Options{MaxRetries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a, b := bytes.Repeat([]byte("detector frame "), 300), []byte{0, '\n', 0xff, '"'}
	if _, err := c.Ingest(context.Background(), []gateway.IngestObject{
		{Path: "/data/a.raw", Project: "p", Data: a, Tags: []string{"raw"}},
		{Path: "/data/b.raw", Project: "p", Data: b},
	}); err != nil {
		t.Fatal(err)
	}

	if len(bodies) != 2 || !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("%d attempts; a retry must replay the first body", len(bodies))
	}
	body := bodies[1]
	if ctype != gateway.IngestContentType {
		t.Fatalf("Content-Type %q, want %q", ctype, gateway.IngestContentType)
	}
	payloads := append(append([]byte{}, a...), b...)
	if !bytes.HasSuffix(body, append([]byte("}\n"), payloads...)) {
		t.Fatalf("body does not end in the manifest's newline and the raw payloads: %q", body)
	}
	if bytes.Contains(body, []byte(base64.StdEncoding.EncodeToString(a)[:64])) {
		t.Fatal("body carries the payload as base64")
	}
	var manifest gateway.IngestRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Objects) != 2 || manifest.Objects[0].Size != int64(len(a)) || manifest.Objects[1].Size != int64(len(b)) ||
		manifest.Objects[0].Data != nil || manifest.Objects[1].Data != nil || manifest.Objects[0].Tags[0] != "raw" {
		t.Fatalf("manifest %+v, want sizes %d and %d, no data", manifest.Objects, len(a), len(b))
	}
}
