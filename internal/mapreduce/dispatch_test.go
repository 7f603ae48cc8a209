package mapreduce

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/mrpc"
)

// These tests pin event-driven dispatch and bounded master state by
// structure, over both transports (conformance_test.go). Most run a
// master whose Heartbeat is an hour (lease eight): nothing in them can
// be carried by a tick, a park timing out or a lease expiring, so a
// step that still waits for a clock hangs the test instead of passing
// it slowly.

func clocklessMaster(t *testing.T, tr transport, c *dfs.Cluster) *Master {
	t.Helper()
	return tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: time.Hour})
}

// A 4-map/2-reduce job on two 2-slot workers, with the tick an hour
// away: it completes only if every hand-off — submit to first map, map
// commit to reduce, freed slot to next task — is an event.
func TestDispatchWithoutAClock(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(4, 1024)
		if err := writeCorpus(c, "/in/doc", wcCorpus(125)); err != nil {
			t.Fatal(err)
		}
		ref, err := Run(c, Config{
			Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/ref",
			Mapper: wordCountMapper, Reducer: sumReducer, Combiner: sumReducer,
			NumReducers: 2, Locality: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := clocklessMaster(t, tr, c)
		tr.startWorkers(t, c, m, 2, nil)
		j := submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/nc", NumReducers: 2})
		if len(j.maps) != 4 || len(j.reduces) != 2 {
			t.Fatalf("job has %d maps and %d reduces, want 4 and 2", len(j.maps), len(j.reduces))
		}
		res := waitJob(t, j)
		if res.Counters.Retries != 0 {
			t.Errorf("retries = %d, want 0", res.Counters.Retries)
		}
		want, got := readParts(t, c, ref.OutputFiles), readParts(t, c, res.OutputFiles)
		for name, wb := range want {
			if string(got[name]) != string(wb) {
				t.Errorf("%s differs from Run's output", name)
			}
		}
	})
}

// A kill order raised while a worker's poll is parked comes back in
// that poll's reply, not on a later beat.
func TestDispatchKillOrderAnswersParkedPoll(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(3, 1024)
		if err := writeCorpus(c, "/in/two", wcCorpus(50)); err != nil { // two blocks, two maps
			t.Fatal(err)
		}
		m := clocklessMaster(t, tr, c)
		ctl := tr.control(m)
		// wc-once: the first task failure fails the job.
		j := submit(t, m, mrpc.JobSpec{Name: "wc-once", Inputs: []string{"/in/two"}, OutputDir: "/out/k"})
		register(t, ctl, "u1", 2)
		register(t, ctl, "u2", 2)
		r1, r2 := beat(t, ctl, "u1", 1, nil), beat(t, ctl, "u2", 1, nil)
		if len(r1.Assign) != 1 || len(r2.Assign) != 1 {
			t.Fatalf("two maps not handed out: %+v / %+v", r1, r2)
		}
		a1, a2 := r1.Assign[0], r2.Assign[0]
		// u1 offers its other slot; nothing is pending, so the poll parks.
		parked := handBeat(ctl, "u1", 1, []mrpc.Progress{{ID: a1.ID, Fraction: 0.5}})
		waitParked(t, m, 1)
		complete(t, ctl, &mrpc.CompleteRequest{Worker: "u2", ID: a2.ID, Err: "boom"})
		r := <-parked
		if r.err != nil || len(r.rep.Kill) != 1 || r.rep.Kill[0] != a1.ID || len(r.rep.Assign) != 0 {
			t.Fatalf("parked poll answered %+v, %v; want the kill order for %v", r.rep, r.err, a1.ID)
		}
		if _, err := j.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("job error = %v, want the task's failure", err)
		}
	})
}

// A worker killed while its poll is parked must be handed nothing: a
// task assigned to a caller that is gone would sit out the lease (here
// eight hours — the job would never finish).
func TestDispatchDeadParkedWorkerGetsNoWork(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(4, 1024)
		if err := writeCorpus(c, "/in/doc", wcCorpus(125)); err != nil {
			t.Fatal(err)
		}
		m := clocklessMaster(t, tr, c)
		ws := tr.startWorkers(t, c, m, 2, nil)
		waitParked(t, m, 2)
		ws[0].Kill()
		waitParked(t, m, 1) // the master saw the caller go
		j := submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/dead", NumReducers: 2})
		res := waitJob(t, j)
		if res.Counters.Retries != 0 {
			t.Errorf("retries = %d, want 0: work went to the dead worker", res.Counters.Retries)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if n := len(m.workers["w0"].attempts); n != 0 {
			t.Errorf("dead worker w0 holds %d attempts", n)
		}
	})
}

// Close answers every parked poll itself, with the master's own error:
// over HTTP the server's shutdown then has no handler to wait out, and
// no poll sees a connection torn down under it when the shutdown
// timeout ran out.
func TestDispatchCloseAnswersParkedPolls(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		m := clocklessMaster(t, tr, testCluster(3, 1024))
		ctl := tr.control(m)
		register(t, ctl, "u1", 2)
		register(t, ctl, "u2", 2)
		p1, p2 := handBeat(ctl, "u1", 1, nil), handBeat(ctl, "u2", 2, nil)
		waitParked(t, m, 2)
		m.Close()
		for _, p := range []<-chan handBeatResult{p1, p2} {
			if r := <-p; r.err == nil || !strings.Contains(r.err.Error(), errMasterClosed.Error()) {
				t.Errorf("parked poll ended with %v, want the master's own %q", r.err, errMasterClosed)
			}
		}
		waitParked(t, m, 0)
	})
}

// Two thousand tiny jobs leave nothing behind in the master, and its
// lifetime totals are exactly the sum of what the jobs reported.
func TestBoundedStateAfterManyJobs(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(3, 4096)
		if err := writeCorpus(c, "/in/one", wcCorpus(10)); err != nil {
			t.Fatal(err)
		}
		m := tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: 5 * time.Millisecond})
		tr.startWorkers(t, c, m, 2, nil)
		var sum MasterStats
		for base := 0; base < n; base += 50 { // 50 in flight at a time
			var jobs []*Job
			for i := base; i < min(base+50, n); i++ {
				jobs = append(jobs, submit(t, m, mrpc.JobSpec{Name: "wc", Inputs: []string{"/in/one"}, OutputDir: fmt.Sprintf("/out/b%04d", i), NumReducers: 1}))
			}
			for _, j := range jobs {
				sum.addCounters(waitJob(t, j).Counters)
			}
		}
		m.mu.Lock()
		live := len(m.jobs)
		m.mu.Unlock()
		if live != 0 {
			t.Errorf("master still holds %d jobs", live)
		}
		got := m.Stats()
		if got.Jobs != n || got.RunningJobs != 0 || got.RunningSlots != 0 {
			t.Errorf("stats: %d jobs, %d running on %d slots; want %d, 0, 0", got.Jobs, got.RunningJobs, got.RunningSlots, n)
		}
		if sum.MapTasks != int64(n) || sum.ReduceTasks != int64(n) || sum.ShuffleBytes == 0 {
			t.Fatalf("jobs reported %+v, want %d maps, %d reduces and shuffle bytes", sum, n, n)
		}
		got.Workers, got.LiveWorkers, got.Jobs = 0, 0, 0
		if got != sum {
			t.Errorf("lifetime totals %+v, sum of the jobs' counters %+v", got, sum)
		}
	})
}

// A completion that arrives after its job settled finds no such job:
// it is answered not-accepted, and the worker deletes the attempt's
// files. The 1-slot worker never beats while its map runs (the tick is
// an hour away), so no kill order can reach it and the completion is
// the only way it learns.
func TestBoundedStateLateCompleteIsRejected(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(3, 1024)
		if err := writeCorpus(c, "/in/two", wcCorpus(50)); err != nil {
			t.Fatal(err)
		}
		m := clocklessMaster(t, tr, c)
		ctl := tr.control(m)
		w, err := tr.worker(m, WorkerConfig{
			ID: "w-late", Store: NewDFSStore(c), Slots: 1,
			Registry: testTemplates(), StepDelay: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		waitParked(t, m, 1)
		j := submit(t, m, mrpc.JobSpec{Name: "wc-once", Inputs: []string{"/in/two"}, OutputDir: "/out/late"})
		// The parked worker took one map; the hand-driven one takes the
		// other and fails it, which fails and drops the job.
		register(t, ctl, "u2", 2)
		r := beat(t, ctl, "u2", 1, nil)
		if len(r.Assign) != 1 {
			t.Fatalf("second map not handed out: %+v", r)
		}
		complete(t, ctl, &mrpc.CompleteRequest{Worker: "u2", ID: r.Assign[0].ID, Err: "boom"})
		if _, err := j.Wait(); err == nil {
			t.Fatal("job did not fail")
		}
		m.mu.Lock()
		live := len(m.jobs)
		m.mu.Unlock()
		if live != 0 {
			t.Fatalf("failed job still held: %d jobs", live)
		}
		// A by-hand completion for the dropped job is not accepted.
		other := r.Assign[0].ID
		other.Task = 1 - other.Task
		if complete(t, ctl, &mrpc.CompleteRequest{Worker: "ghost", ID: other}).Accepted {
			t.Fatal("completion for a dropped job accepted")
		}
		// The real worker's map finishes, reports, is refused and cleans up.
		waitParked(t, m, 1)
		if files := c.List("/out/late"); len(files) != 0 {
			t.Errorf("dropped job left %d files, first %s", len(files), files[0].Name)
		}
		if got := m.Stats(); got.Jobs != 1 || got.MapTasks != 2 {
			t.Errorf("lifetime totals lost the failed job: %+v", got)
		}
	})
}
