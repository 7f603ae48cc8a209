package mrpc

import (
	"context"
	"net"
	"net/http"
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
