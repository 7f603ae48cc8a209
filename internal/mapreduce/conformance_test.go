package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/mrpc"
)

// The control plane has one contract, mrpc.Control, and two transports.
// This suite drives the master's protocol by hand — no Worker runtime —
// through both, so whatever a worker may rely on over HTTP it may rely
// on in process: register → heartbeat → complete, Unknown for a worker
// the master does not know or presumes dead, lease expiry and commit
// arbitration, a parked heartbeat and what ends it, malformed requests,
// a closed master. dispatch_test.go holds the clockless cases.

// transport is one way of reaching a master.
type transport struct {
	name    string
	master  func(MasterConfig) (*Master, error)
	control func(*Master) mrpc.Control
	worker  func(*Master, WorkerConfig) (*Worker, error)
}

var transports = []transport{
	{
		name:    "http",
		master:  NewMaster,
		control: func(m *Master) mrpc.Control { return mrpc.NewClient(m.URL()) },
		worker: func(m *Master, cfg WorkerConfig) (*Worker, error) {
			cfg.Master = m.URL()
			return StartWorker(cfg)
		},
	},
	{
		name:    "direct",
		master:  newMaster,
		control: func(m *Master) mrpc.Control { return m },
		worker:  func(m *Master, cfg WorkerConfig) (*Worker, error) { return startWorker(cfg, m, false) },
	},
}

func eachTransport(t *testing.T, fn func(t *testing.T, tr transport)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { fn(t, tr) })
	}
}

func (tr transport) startMaster(t testing.TB, cfg MasterConfig) *Master {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testTemplates()
	}
	m, err := tr.master(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// protoMaster is a master with a 5 ms beat and a 25 ms lease over a
// one-block input: exactly one map task.
func protoMaster(t *testing.T, tr transport) (*Master, mrpc.Control) {
	t.Helper()
	c := testCluster(3, 4096)
	if err := writeCorpus(c, "/in/one", wcCorpus(10)); err != nil {
		t.Fatal(err)
	}
	m := tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: 5 * time.Millisecond, Lease: 25 * time.Millisecond})
	return m, tr.control(m)
}

// handCtx bounds a hand-driven call, so a poll that is never answered
// fails the test rather than hanging it.
func handCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func register(t *testing.T, ctl mrpc.Control, id string, slots int) *mrpc.RegisterReply {
	t.Helper()
	ctx, cancel := handCtx()
	defer cancel()
	rep, err := ctl.Register(ctx, &mrpc.RegisterRequest{Worker: id, Addr: "127.0.0.1:1", Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func beat(t *testing.T, ctl mrpc.Control, id string, free int, running []mrpc.Progress) *mrpc.HeartbeatReply {
	t.Helper()
	r := <-handBeat(ctl, id, free, running)
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.rep
}

type handBeatResult struct {
	rep *mrpc.HeartbeatReply
	err error
}

// handBeat sends one heartbeat and delivers the outcome on the returned
// channel: the way to hold a poll parked while the test does something.
func handBeat(ctl mrpc.Control, id string, free int, running []mrpc.Progress) <-chan handBeatResult {
	ch := make(chan handBeatResult, 1)
	go func() {
		ctx, cancel := handCtx()
		defer cancel()
		var r handBeatResult
		r.rep, r.err = ctl.Heartbeat(ctx, &mrpc.HeartbeatRequest{Worker: id, Free: free, Running: running})
		ch <- r
	}()
	return ch
}

func complete(t *testing.T, ctl mrpc.Control, req *mrpc.CompleteRequest) *mrpc.CompleteReply {
	t.Helper()
	ctx, cancel := handCtx()
	defer cancel()
	rep, err := ctl.Complete(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameTask reports whether two attempts run the same task.
func sameTask(a, b mrpc.AttemptID) bool {
	a.Attempt, b.Attempt = 0, 0
	return a == b
}

// takeAssignment heartbeats until the master hands id one task.
func takeAssignment(t *testing.T, ctl mrpc.Control, id string) mrpc.Assignment {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		rep := beat(t, ctl, id, 1, nil)
		if rep.Unknown {
			t.Fatal("unexpected Unknown for registered worker")
		}
		if len(rep.Assign) > 0 {
			return rep.Assign[0]
		}
	}
	t.Fatal("no assignment before deadline")
	return mrpc.Assignment{}
}

// waitParked blocks until exactly n heartbeat polls are parked.
func waitParked(t *testing.T, m *Master, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		got := m.parked
		m.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d polls parked, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func submit(t *testing.T, m *Master, spec mrpc.JobSpec) *Job {
	t.Helper()
	j, err := m.Submit(spec, "t")
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestLeaseExpiryRequeuesTask(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		m, ctl := protoMaster(t, tr)
		submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/one"}, OutputDir: "/out/l1"})
		if rep := register(t, ctl, "u1", 1); rep.LeaseMS != 25 || rep.HeartbeatMS != 5 {
			t.Fatalf("registered into %+v, want a 5 ms beat and a 25 ms lease", rep)
		}
		a1 := takeAssignment(t, ctl, "u1")
		if a1.ID.Attempt != 0 {
			t.Fatalf("first lease is attempt %d, want 0", a1.ID.Attempt)
		}
		// u1 goes silent past its lease: the master must declare it dead
		// and hand the same task to a newcomer as a fresh attempt.
		time.Sleep(60 * time.Millisecond)
		if live := m.LiveWorkers(); len(live) != 0 {
			t.Fatalf("workers still live after lease expiry: %v", live)
		}
		register(t, ctl, "u2", 1)
		a2 := takeAssignment(t, ctl, "u2")
		if !sameTask(a2.ID, a1.ID) {
			t.Fatalf("requeued task %v, want %v's task", a2.ID, a1.ID)
		}
		if a2.ID.Attempt <= a1.ID.Attempt {
			t.Fatalf("reissued lease reuses attempt number %d", a2.ID.Attempt)
		}
	})
}

// A worker restarted faster than its lease registers while the master
// still holds its first incarnation alive. The attempts of that one must
// be struck and re-queued there and then: nothing else ever would (the
// lease is an hour), and at the parent commit the job hung — the second
// incarnation was handed 0 of 1 tasks.
func TestReRegisterInsideLeaseRequeues(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(3, 4096)
		if err := writeCorpus(c, "/in/one", wcCorpus(10)); err != nil {
			t.Fatal(err)
		}
		m := tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: 5 * time.Millisecond, Lease: time.Hour})
		ctl := tr.control(m)
		j := submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/one"}, OutputDir: "/out/rr"})
		register(t, ctl, "w0", 1)
		a1 := takeAssignment(t, ctl, "w0")
		register(t, ctl, "w0", 1) // the restart
		rep := beat(t, ctl, "w0", 1, nil)
		if len(rep.Assign) != 1 {
			t.Fatalf("second incarnation was handed %d of 1 tasks", len(rep.Assign))
		}
		if a2 := rep.Assign[0]; !sameTask(a2.ID, a1.ID) || a2.ID.Attempt <= a1.ID.Attempt {
			t.Fatalf("second incarnation got %v after %v, want the same task as a later attempt", a2.ID, a1.ID)
		}
		if r := complete(t, ctl, &mrpc.CompleteRequest{Worker: "w0", ID: a1.ID}); r.Accepted {
			t.Error("the struck attempt's completion was accepted")
		}
		m.mu.Lock()
		retries := j.ctr.Retries
		m.mu.Unlock()
		if retries != 1 {
			t.Errorf("retries = %d, want 1: the lost attempt", retries)
		}
	})
}

func TestLateHeartbeatFromPresumedDeadWorker(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		m, ctl := protoMaster(t, tr)
		register(t, ctl, "u1", 1)
		if rep := beat(t, ctl, "u1", 1, nil); rep.Unknown {
			t.Fatal("live worker told it is unknown")
		}
		time.Sleep(60 * time.Millisecond)
		rep := beat(t, ctl, "u1", 1, nil)
		if !rep.Unknown {
			t.Fatal("presumed-dead worker's heartbeat not answered with Unknown")
		}
		if len(rep.Assign) != 0 {
			t.Fatal("dead worker handed work")
		}
		// Re-registering restores service.
		register(t, ctl, "u1", 1)
		if rep := beat(t, ctl, "u1", 1, nil); rep.Unknown {
			t.Fatal("re-registered worker still unknown")
		}
		if len(m.LiveWorkers()) != 1 {
			t.Fatalf("live workers = %v", m.LiveWorkers())
		}
		// An unregistered worker's running attempt is unknown too; its
		// heartbeat must not panic the master.
		rep = beat(t, ctl, "ghost", 0, []mrpc.Progress{{ID: mrpc.AttemptID{Job: "mj-000001", Phase: "map"}}})
		if !rep.Unknown {
			t.Fatal("never-registered worker not told Unknown")
		}
	})
}

func TestSupersededCompleteRejected(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		m, ctl := protoMaster(t, tr)
		submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/one"}, OutputDir: "/out/l3"})
		register(t, ctl, "u1", 1)
		a1 := takeAssignment(t, ctl, "u1")
		time.Sleep(60 * time.Millisecond) // u1's lease lapses mid-task
		register(t, ctl, "u2", 1)
		a2 := takeAssignment(t, ctl, "u2")
		if !sameTask(a2.ID, a1.ID) {
			t.Fatalf("successor got %v, want %v's task", a2.ID, a1.ID)
		}
		// The dead-then-revived u1 finishes its superseded attempt late.
		if complete(t, ctl, &mrpc.CompleteRequest{Worker: "u1", ID: a1.ID}).Accepted {
			t.Fatal("superseded attempt's completion accepted")
		}
		// The live successor's completion is accepted — once.
		if !complete(t, ctl, &mrpc.CompleteRequest{Worker: "u2", ID: a2.ID}).Accepted {
			t.Fatal("successor attempt's completion rejected")
		}
		if complete(t, ctl, &mrpc.CompleteRequest{Worker: "u2", ID: a2.ID}).Accepted {
			t.Fatal("duplicate completion accepted twice")
		}
	})
}

// The master indexes with nothing the wire says before checking it. An
// attempt ID that names no task of its job is a protocol error, the same
// one on both transports — over HTTP net/http used to swallow the
// panic; called directly it would have taken the process down — and a
// worker's claim of free slots is capped by the slots it registered.
func TestMalformedRequests(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(3, 1024)
		if err := writeCorpus(c, "/in/two", wcCorpus(50)); err != nil { // two blocks, two maps
			t.Fatal(err)
		}
		m := tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: 5 * time.Millisecond, Lease: time.Hour})
		ctl := tr.control(m)
		wc := submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/two"}, OutputDir: "/out/wc"})
		grep := submit(t, m, mrpc.JobSpec{Name: "grep-the", Inputs: []string{"/in/two"}, OutputDir: "/out/grep"})
		for _, id := range []mrpc.AttemptID{
			{Job: wc.ID, Phase: mrpc.PhaseMap, Task: 99},
			{Job: wc.ID, Phase: mrpc.PhaseMap, Task: 2},
			{Job: wc.ID, Phase: mrpc.PhaseMap, Task: -1},
			{Job: wc.ID, Phase: mrpc.PhaseReduce, Task: 1},
			{Job: wc.ID, Phase: "shuffle", Task: 0},
			{Job: wc.ID, Task: 0},
			{Job: grep.ID, Phase: mrpc.PhaseReduce, Task: 0}, // map-only: no reduces at all
		} {
			ctx, cancel := handCtx()
			_, err := ctl.Complete(ctx, &mrpc.CompleteRequest{Worker: "w", ID: id})
			cancel()
			var pe *mrpc.Error
			if !errors.As(err, &pe) || pe.Code != mrpc.CodeBadRequest {
				t.Errorf("complete %+v: %v, want a %s protocol error", id, err, mrpc.CodeBadRequest)
			}
		}
		// An ID that is well formed but tracked by nobody is merely not
		// accepted, as ever.
		if complete(t, ctl, &mrpc.CompleteRequest{Worker: "w", ID: mrpc.AttemptID{Job: wc.ID, Phase: mrpc.PhaseReduce, Task: 0, Attempt: 7}}).Accepted {
			t.Error("untracked attempt accepted")
		}
		register(t, ctl, "one-slot", 1)
		rep := beat(t, ctl, "one-slot", 50, nil)
		if len(rep.Assign) != 1 {
			t.Fatalf("a worker registered with 1 slot claiming 50 free was handed %d tasks", len(rep.Assign))
		}
		// It holds that one now: nothing more, whatever it claims and
		// however much is pending (the poll parks for one beat).
		rep = beat(t, ctl, "one-slot", 50, []mrpc.Progress{{ID: rep.Assign[0].ID, Fraction: 0.5}})
		if len(rep.Assign) != 0 || len(rep.Kill) != 0 {
			t.Fatalf("a full worker claiming 50 free was answered %+v", rep)
		}
	})
}

// A parked caller whose context ends — it hung up, or its deadline
// passed — gets its context's error and is handed nothing.
func TestParkedHeartbeatContextEnds(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(3, 4096)
		if err := writeCorpus(c, "/in/one", wcCorpus(10)); err != nil {
			t.Fatal(err)
		}
		m := tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: time.Hour})
		ctl := tr.control(m)
		register(t, ctl, "u1", 1)

		// A deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := ctl.Heartbeat(ctx, &mrpc.HeartbeatRequest{Worker: "u1", Free: 1})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("parked heartbeat past its deadline: %v", err)
		}
		waitParked(t, m, 0)

		// A cancellation.
		ctx, cancel = context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := ctl.Heartbeat(ctx, &mrpc.HeartbeatRequest{Worker: "u1", Free: 1})
			done <- err
		}()
		waitParked(t, m, 1)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled parked heartbeat: %v", err)
		}
		waitParked(t, m, 0)

		// Neither was handed the task submitted after it left: the next
		// beat gets it, as the task's first attempt.
		submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/one"}, OutputDir: "/out/ctx"})
		rep := beat(t, ctl, "u1", 1, nil)
		if len(rep.Assign) != 1 || rep.Assign[0].ID.Attempt != 0 {
			t.Fatalf("beat after the abandoned polls got %+v, want attempt 0 of the one map", rep.Assign)
		}
	})
}

// A closed master answers every call with an error, on either transport
// (over HTTP there is nobody listening any more).
func TestClosedMasterAnswersError(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		m, ctl := protoMaster(t, tr)
		register(t, ctl, "u1", 1)
		m.Close()
		ctx, cancel := handCtx()
		defer cancel()
		if _, err := ctl.Register(ctx, &mrpc.RegisterRequest{Worker: "u2", Slots: 1}); err == nil {
			t.Error("register on a closed master succeeded")
		}
		if _, err := ctl.Heartbeat(ctx, &mrpc.HeartbeatRequest{Worker: "u1", Free: 1}); err == nil {
			t.Error("heartbeat on a closed master succeeded")
		}
		if _, err := ctl.Complete(ctx, &mrpc.CompleteRequest{Worker: "u1", ID: mrpc.AttemptID{Job: "mj-000001", Phase: mrpc.PhaseMap}}); err == nil {
			t.Error("complete on a closed master succeeded")
		}
		if _, err := m.Submit(mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/one"}, OutputDir: "/out/x"}, "t"); !errors.Is(err, errMasterClosed) {
			t.Errorf("submit on a closed master: %v", err)
		}
	})
}

// startWorkers launches n workers bound to the cluster; delays maps a
// worker index to an injected per-record StepDelay (stragglers).
func (tr transport) startWorkers(t testing.TB, c *dfs.Cluster, m *Master, n int, delays map[int]time.Duration) []*Worker {
	t.Helper()
	ws := make([]*Worker, n)
	for i := range ws {
		w, err := tr.worker(m, WorkerConfig{
			ID:        fmt.Sprintf("w%d", i),
			Store:     NewDFSStore(c),
			Node:      fmt.Sprintf("dn%02d", i%len(c.DataNodes())),
			Slots:     2,
			Registry:  testTemplates(),
			StepDelay: delays[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		ws[i] = w
	}
	return ws
}
