package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
)

const (
	benchTenant = "bench"
	benchToken  = "bench-token"
)

// stack is one running facility behind its gateway on a loopback TCP
// listener, inside the benchmark process: the door users come through.
type stack struct {
	fac  *facility.Facility
	srv  *gateway.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startStack(opts facility.Options) (*stack, error) {
	fac, err := facility.New(opts)
	if err != nil {
		return nil, fmt.Errorf("facility: %w", err)
	}
	// Limits sit far above the load: a refusal would be a failed op,
	// and gateway.rejected must read 0.
	srv, err := gateway.ForFacility(fac, gateway.Config{Tenants: []gateway.Tenant{{
		Name: benchTenant, Token: benchToken,
		Prefixes: []string{"/sites", "/hdfs"},
		RPS:      1e6, Burst: 1 << 20, MaxInFlight: 64,
	}}})
	if err != nil {
		fac.Close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fac.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{fac: fac, srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		_ = s.hs.Serve(ln) // returns ErrServerClosed on close
		close(s.done)
	}()
	return s, nil
}

// close stops the listener, waits for the server goroutine and closes
// the facility.
func (s *stack) close() {
	_ = s.hs.Close()
	<-s.done
	s.fac.Close()
}

func (s *stack) rejected() int64 {
	var n int64
	for _, st := range s.srv.Stats() {
		n += st.Rejected + st.Throttled
	}
	return n
}

// benchClient is one closed-loop caller: its own connection, its own
// read buffer, and the datasets the facility acknowledged to it.
type benchClient struct {
	idx   int
	c     *client.Client
	tr    *http.Transport
	buf   []byte
	acked []ack

	// What the client's loop recorded; the runner reads these after
	// the loop has ended.
	lat       [rounds][]time.Duration // latencies of verified ops, by round
	attempted int64
	failed    int64
	rssSum    float64 // ingest-durable: peak-RSS readings, see ingestRSSFrom
	rssReads  int

	// The runner reads these two while the client runs.
	puts   atomic.Int64 // objects stored (PUTs and ingested objects)
	served atomic.Int64 // payload bytes read
}

// newClient builds a caller with one connection and no retries: a
// refusal is a failure, not a hidden retry.
func (s *stack) newClient(idx int, bufSize int) (*benchClient, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c, err := client.New(s.base, benchToken, client.Options{HTTPClient: &http.Client{Transport: tr}, MaxRetries: -1})
	if err != nil {
		return nil, err
	}
	return &benchClient{idx: idx, c: c, tr: tr, buf: make([]byte, bufSize+1)}, nil
}

func (c *benchClient) close() { c.tr.CloseIdleConnections() }

// readBody drains rc into the client's buffer and reports the bytes
// read; it fails unless the body is exactly want bytes long. The body
// is read to EOF so the connection is reused.
func (c *benchClient) readBody(rc io.ReadCloser, want int64) ([]byte, error) {
	defer rc.Close()
	n, err := io.ReadFull(rc, c.buf[:want+1])
	if err != io.ErrUnexpectedEOF || int64(n) != want {
		return nil, fmt.Errorf("body: read %d bytes (%v), want %d", n, err, want)
	}
	return c.buf[:n], nil
}

// sinkWriter is the ResponseWriter of the in-process gateway rung: it
// counts body bytes and keeps them only when asked to.
type sinkWriter struct {
	hdr    http.Header
	status int
	n      int64
	keep   *bytes.Buffer
}

func (w *sinkWriter) Header() http.Header { return w.hdr }
func (w *sinkWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *sinkWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	if w.keep != nil {
		w.keep.Write(p)
	}
	return len(p), nil
}

// serve calls the gateway's ServeHTTP directly — the HTTP rung minus
// the client, the socket and net/http's connection handling.
func (s *stack) serve(method, target string, hdr http.Header, body []byte, keep bool) (*sinkWriter, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, s.base+target, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+benchToken)
	for k, v := range hdr {
		req.Header[k] = v
	}
	w := &sinkWriter{hdr: http.Header{}}
	if keep {
		w.keep = &bytes.Buffer{}
	}
	s.srv.ServeHTTP(w, req)
	if w.status >= 400 {
		return w, fmt.Errorf("%s %s: status %d", method, target, w.status)
	}
	return w, nil
}
