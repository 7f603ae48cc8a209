package mrpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// The HTTP transport's half of the Control contract, against a scripted
// peer: what Mount serves is what *Client returns — replies, protocol
// errors with their code, ErrNotFound — a call's context reaches the
// handler (deadline, cancellation, the caller hanging up), and a closed
// server is an error. The master's half — the same cases through a real
// master on both transports — is internal/mapreduce's conformance suite.

// scripted is a Control whose answers the test sets.
type scripted struct {
	register  func(context.Context, *RegisterRequest) (*RegisterReply, error)
	heartbeat func(context.Context, *HeartbeatRequest) (*HeartbeatReply, error)
	complete  func(context.Context, *CompleteRequest) (*CompleteReply, error)
}

func (s *scripted) Register(ctx context.Context, r *RegisterRequest) (*RegisterReply, error) {
	return s.register(ctx, r)
}
func (s *scripted) Heartbeat(ctx context.Context, r *HeartbeatRequest) (*HeartbeatReply, error) {
	return s.heartbeat(ctx, r)
}
func (s *scripted) Complete(ctx context.Context, r *CompleteRequest) (*CompleteReply, error) {
	return s.complete(ctx, r)
}

func serveControl(t *testing.T, c Control) (*Server, *Client) {
	t.Helper()
	mux := http.NewServeMux()
	Mount(mux, c)
	srv, err := Serve("", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, NewClient(srv.URL())
}

func TestClientRoundTripsEveryCall(t *testing.T) {
	id := AttemptID{Job: "mj-000001", Phase: PhaseReduce, Task: 2, Attempt: 1}
	assign := Assignment{
		ID: id, Spec: JobSpec{Name: "wc", Inputs: []string{"/in"}, OutputDir: "/out", Args: map[string]string{"k": "v"}},
		ShufDir: "/out/_shuffle-d1", OutFile: "/out/part-00002.a1",
		MapOutputs: []MapOutputRef{{Task: 0, Runs: []RunRef{{File: "/s", Addr: "h:1", Segs: []SegRef{{Off: 1, Len: 2, Records: 3}}}}}},
	}
	var got struct {
		reg *RegisterRequest
		hb  *HeartbeatRequest
		cr  *CompleteRequest
	}
	_, cl := serveControl(t, &scripted{
		register: func(_ context.Context, r *RegisterRequest) (*RegisterReply, error) {
			got.reg = r
			return &RegisterReply{HeartbeatMS: 10, LeaseMS: 80}, nil
		},
		heartbeat: func(_ context.Context, r *HeartbeatRequest) (*HeartbeatReply, error) {
			got.hb = r
			return &HeartbeatReply{Assign: []Assignment{assign}, Kill: []AttemptID{id}}, nil
		},
		complete: func(_ context.Context, r *CompleteRequest) (*CompleteReply, error) {
			got.cr = r
			return &CompleteReply{Accepted: true}, nil
		},
	})
	var ctl Control = cl
	ctx := context.Background()

	reg := &RegisterRequest{Worker: "w0", Addr: "127.0.0.1:9", Node: "dn00", Slots: 2}
	if rep, err := ctl.Register(ctx, reg); err != nil || rep.HeartbeatMS != 10 || rep.LeaseMS != 80 || !reflect.DeepEqual(got.reg, reg) {
		t.Errorf("register: %+v, %v; peer saw %+v", rep, err, got.reg)
	}
	hb := &HeartbeatRequest{Worker: "w0", Free: 1, Running: []Progress{{ID: id, Fraction: 0.25}}}
	if rep, err := ctl.Heartbeat(ctx, hb); err != nil || !reflect.DeepEqual(rep.Assign, []Assignment{assign}) || !reflect.DeepEqual(rep.Kill, []AttemptID{id}) || !reflect.DeepEqual(got.hb, hb) {
		t.Errorf("heartbeat: %+v, %v; peer saw %+v", rep, err, got.hb)
	}
	// Cause is the direct transport's: it must not cross, Err must.
	cr := &CompleteRequest{Worker: "w0", ID: id, Err: "boom", Cause: errors.New("boom"), LostMaps: []int{4}, Counters: TaskCounters{ShuffleBytes: 7}}
	if rep, err := ctl.Complete(ctx, cr); err != nil || !rep.Accepted {
		t.Errorf("complete: %+v, %v", rep, err)
	}
	want := *cr
	want.Cause = nil
	if !reflect.DeepEqual(got.cr, &want) {
		t.Errorf("complete: peer saw %+v, want %+v", got.cr, &want)
	}
}

func TestClientSeesThePeersError(t *testing.T) {
	var answer error
	_, cl := serveControl(t, &scripted{
		complete: func(context.Context, *CompleteRequest) (*CompleteReply, error) { return nil, answer },
	})
	for _, tc := range []struct {
		answer error
		check  func(error) bool
	}{
		{&Error{Code: CodeBadRequest, Msg: "no such task"}, func(err error) bool {
			var pe *Error
			return errors.As(err, &pe) && pe.Code == CodeBadRequest && pe.Msg == "no such task"
		}},
		{fmt.Errorf("stat /x: %w", ErrNotFound), func(err error) bool { return errors.Is(err, ErrNotFound) }},
		{errors.New("master closed"), func(err error) bool {
			var pe *Error
			return errors.As(err, &pe) && pe.Code == "internal" && pe.Msg == "master closed"
		}},
	} {
		answer = tc.answer
		if rep, err := cl.Complete(context.Background(), &CompleteRequest{}); rep != nil || !tc.check(err) {
			t.Errorf("peer answered %v; client returned %+v, %v", tc.answer, rep, err)
		}
	}
}

// A parked handler — the master's heartbeat poll — learns that its
// caller's deadline passed or that it hung up, and the caller gets its
// context's error; a handler that answers after the caller left answers
// nobody.
func TestParkedCallEndsWithItsContext(t *testing.T) {
	left := make(chan error, 2)
	_, cl := serveControl(t, &scripted{
		heartbeat: func(ctx context.Context, _ *HeartbeatRequest) (*HeartbeatReply, error) {
			<-ctx.Done() // parked until the caller goes
			left <- ctx.Err()
			return &HeartbeatReply{Assign: []Assignment{{ShufDir: "to nobody"}}}, nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	rep, err := cl.Heartbeat(ctx, &HeartbeatRequest{Worker: "w0", Free: 1})
	cancel()
	if rep != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("call past its deadline: %+v, %v", rep, err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	rep, err = cl.Heartbeat(ctx, &HeartbeatRequest{Worker: "w0", Free: 1})
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call: %+v, %v", rep, err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-left:
			if err == nil {
				t.Error("handler's context ended without an error")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the handler never saw its caller leave")
		}
	}
}

func TestClosedServerIsAnError(t *testing.T) {
	srv, cl := serveControl(t, &scripted{
		register: func(context.Context, *RegisterRequest) (*RegisterReply, error) { return &RegisterReply{}, nil },
	})
	if _, err := cl.Register(context.Background(), &RegisterRequest{Worker: "w0", Slots: 1}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if rep, err := cl.Register(context.Background(), &RegisterRequest{Worker: "w0", Slots: 1}); err == nil {
		t.Errorf("register on a closed server: %+v", rep)
	}
}
