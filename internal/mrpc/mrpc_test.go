package mrpc

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseWithDialedIdleConnection: a peer's transport dials ahead of
// need, so a server can hold a connection that never carries a
// request. http.Server.Shutdown counts it as in flight for its first
// five seconds; Close must not wait its timeout out on it.
func TestCloseWithDialedIdleConnection(t *testing.T) {
	mux := http.NewServeMux()
	Handle(mux, PathHeartbeat, func(context.Context, *HeartbeatRequest) (*HeartbeatReply, error) {
		return &HeartbeatReply{Unknown: true}, nil
	})
	s, err := Serve("", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// One used, kept-alive connection beside the never-used one.
	var rep HeartbeatReply
	if err := NewClient(s.URL()).Call(context.Background(), PathHeartbeat, &HeartbeatRequest{}, &rep); err != nil || !rep.Unknown {
		t.Fatalf("heartbeat: %+v, %v", rep, err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The server has accepted it once ConnState has seen it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.fresh)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server tracks %d never-used connections, want 1", n)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := s.shutdown(2 * time.Second); err != nil {
		t.Fatalf("Shutdown = %v after %v, want nil", err, time.Since(start))
	}
}

// TestClientReusesConnectionsPastTwo holds waves of four concurrent
// calls at a barrier on the server: every wave after the first runs on
// the connections the first one dialed, where a transport that keeps
// two idle connections per peer dials two more each wave.
func TestClientReusesConnectionsPastTwo(t *testing.T) {
	const waves, width = 8, 4
	var dials atomic.Int64
	arrived := make(chan struct{}, width)
	release := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-release
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := NewClient(srv.URL)
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, width)
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- c.Call(context.Background(), PathHeartbeat, &HeartbeatRequest{}, nil)
			}()
		}
		for i := 0; i < width; i++ { // all four are in flight at once
			<-arrived
		}
		for i := 0; i < width; i++ {
			release <- struct{}{}
		}
		wg.Wait()
		for i := 0; i < width; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := dials.Load(); n > width {
		t.Errorf("%d waves of %d concurrent calls dialed %d connections, want at most %d", waves, width, n, width)
	}
}
