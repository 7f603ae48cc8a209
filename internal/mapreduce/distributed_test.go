package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/mrpc"
	"repro/internal/units"
)

// testTemplates is the registry distributed tests share: wordcount
// with a combiner (the shuffle path), and a map-only grep.
func testTemplates() Registry {
	return Registry{
		"wc": func(mrpc.JobSpec) (Config, error) {
			return Config{
				Mapper:   wordCountMapper,
				Reducer:  sumReducer,
				Combiner: sumReducer,
				Format:   TextInput,
				Locality: true,
			}, nil
		},
		"wc-once": func(mrpc.JobSpec) (Config, error) { // a task's first failure fails the job
			return Config{
				Mapper:      wordCountMapper,
				Reducer:     sumReducer,
				Combiner:    sumReducer,
				Format:      TextInput,
				MaxAttempts: 1,
			}, nil
		},
		"wc-spec": func(mrpc.JobSpec) (Config, error) {
			return Config{
				Mapper:      wordCountMapper,
				Reducer:     sumReducer,
				Combiner:    sumReducer,
				Format:      TextInput,
				Locality:    true,
				Speculative: true,
			}, nil
		},
		"grep-the": func(mrpc.JobSpec) (Config, error) {
			return Config{
				Mapper: MapperFunc(func(key string, value []byte, emit Emit) error {
					if strings.Contains(string(value), "the") {
						emit(key, value)
					}
					return nil
				}),
				Format:  TextInput,
				MapOnly: true,
			}, nil
		},
	}
}

// startMaster is the distributed tests' master: a 5 ms beat, the
// default 8-beat lease.
func startMaster(t testing.TB, tr transport, c *dfs.Cluster) *Master {
	t.Helper()
	return tr.startMaster(t, MasterConfig{Cluster: c, Heartbeat: 5 * time.Millisecond})
}

func waitJob(t *testing.T, j *Job) *Result {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := j.Wait()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatalf("job %s: %v", j.ID, o.err)
		}
		return o.res
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s: timed out", j.ID)
		return nil
	}
}

// readParts returns each output file's raw bytes keyed by its name
// relative to the output dir, for byte-level comparison across runs.
func readParts(t *testing.T, c *dfs.Cluster, files []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := c.ReadFile(f, "")
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		out[f[strings.LastIndex(f, "/")+1:]] = data
	}
	return out
}

func wcCorpus(n int) []string {
	words := []string{"fish", "embryo", "the", "toxicology", "screen",
		"development", "kit", "genome", "the", "tile"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%s %s %s line%04d",
			words[i%len(words)], words[(i*3+1)%len(words)], words[(i*7+2)%len(words)], i)
	}
	return lines
}

// TestDistributedByteIdentity is the core acceptance check: the same
// job, spilling under a 1 KiB budget and not at all, run through Run
// and through a master + 4 workers on either transport, must produce
// the part files the single-process engine wrote before it was deleted
// (golden_test.go) — the merge tie-break and spill-all invariants
// crossing the wire intact.
func TestDistributedByteIdentity(t *testing.T) {
	for shape, budget := range map[string]int64{"byte-identity": 1024, "unspilled": 0} {
		t.Run(shape, func(t *testing.T) { byteIdentity(t, shape, budget) })
	}
}

func byteIdentity(t *testing.T, shape string, budget int64) {
	c := testCluster(4, 256)
	if err := writeCorpus(c, "/in/doc", wcCorpus(300)); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(c, Config{
		Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/run",
		Mapper: wordCountMapper, Reducer: sumReducer, Combiner: sumReducer,
		NumReducers: 3, Locality: true, ShuffleMemory: units.Bytes(budget),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, shape, c, ref.OutputFiles)
	eachTransport(t, func(t *testing.T, tr transport) {
		m := startMaster(t, tr, c)
		tr.startWorkers(t, c, m, 4, nil)
		out := "/out/" + tr.name
		res := waitJob(t, submit(t, m, mrpc.JobSpec{
			Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: out,
			NumReducers: 3, ShuffleMemory: budget,
		}))
		checkGolden(t, shape, c, res.OutputFiles)
		if res.Counters.InputRecords != ref.Counters.InputRecords || res.Counters.OutputRecords != ref.Counters.OutputRecords {
			t.Errorf("records in/out %d/%d, Run counted %d/%d", res.Counters.InputRecords,
				res.Counters.OutputRecords, ref.Counters.InputRecords, ref.Counters.OutputRecords)
		}
		if (res.Counters.SpillRuns > 0) != (budget > 0) || res.Counters.SpillRuns != ref.Counters.SpillRuns {
			t.Errorf("%d spill runs under a %d B budget (Run: %d)", res.Counters.SpillRuns, budget, ref.Counters.SpillRuns)
		}
		// With a shuffle server on every live worker, segments come
		// from there, not from the DFS; without sockets, never.
		if remote := res.Counters.RemoteShuffleBytes > 0; remote != (tr.name == "http") {
			t.Errorf("%d bytes moved through the network shuffle", res.Counters.RemoteShuffleBytes)
		}
		// Committed shuffle state must be gone.
		for _, f := range c.List(out + "/_shuffle") {
			t.Errorf("leftover shuffle file %s", f.Name)
		}
	})
}

// TestDistributedMapOnly checks the NumReduceTasks=0 path: attempt
// files renamed into the part-m names and bytes the engine wrote.
func TestDistributedMapOnly(t *testing.T) {
	c := testCluster(4, 256)
	if err := writeCorpus(c, "/in/doc", wcCorpus(120)); err != nil {
		t.Fatal(err)
	}
	grep, err := testTemplates().Resolve(mrpc.JobSpec{Name: "grep-the", Inputs: []string{"/in/doc"}, OutputDir: "/out/run"})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(c, grep)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "map-only-grep", c, ref.OutputFiles)
	eachTransport(t, func(t *testing.T, tr transport) {
		m := startMaster(t, tr, c)
		tr.startWorkers(t, c, m, 3, nil)
		res := waitJob(t, submit(t, m, mrpc.JobSpec{Name: "grep-the", Inputs: []string{"/in/doc"}, OutputDir: "/out/" + tr.name}))
		checkGolden(t, "map-only-grep", c, res.OutputFiles)
	})
}

// TestDistributedWorkerKill kills half the fleet mid-job. The master
// must detect the missed heartbeats, re-queue the dead workers' work
// (re-running committed maps only if their spill files are really
// unreachable), and finish with the output of a clean run.
func TestDistributedWorkerKill(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(4, 128)
		if err := writeCorpus(c, "/in/doc", wcCorpus(400)); err != nil {
			t.Fatal(err)
		}
		m := startMaster(t, tr, c)
		// Slow every record slightly so the job outlives the kills.
		slow := map[int]time.Duration{}
		for i := 0; i < 4; i++ {
			slow[i] = 100 * time.Microsecond
		}
		ws := tr.startWorkers(t, c, m, 4, slow)
		j := submit(t, m, mrpc.JobSpec{
			Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/kd",
			NumReducers: 2, ShuffleMemory: 2048,
		})
		time.Sleep(30 * time.Millisecond) // let tasks land on every worker
		ws[1].Kill()
		ws[3].Kill()
		res := waitJob(t, j)
		checkGolden(t, "worker-kill", c, res.OutputFiles)
		deadline := time.Now().Add(2 * time.Second)
		for {
			if live := m.LiveWorkers(); len(live) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("master still counts %v live", m.LiveWorkers())
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestDistributedSpeculation runs one worker at ~1% speed. The master
// must project the straggler from its progress rate, launch a bounded
// backup, and commit whichever attempt finishes first — with the
// output of an unhampered run.
func TestDistributedSpeculation(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(4, 256)
		if err := writeCorpus(c, "/in/doc", wcCorpus(300)); err != nil {
			t.Fatal(err)
		}
		m := startMaster(t, tr, c)
		// One single-slot straggler, then three healthy workers — started
		// only once the master has handed the straggler a map, so the
		// healthy ones cannot drain the phase before it holds a task. The
		// sleep-based delay keeps that map running long after they drain
		// the rest of the queue — even under -race, which slows their
		// compute but not this sleep — so there is always a committed
		// median to project against and a straggler alive past it. One
		// slot keeps the test deterministic the other way too: the
		// straggler cannot absorb a whole phase, whose siblings then never
		// commit.
		slow, err := tr.worker(m, WorkerConfig{
			ID:        "w-slow",
			Store:     NewDFSStore(c),
			Node:      "dn03",
			Slots:     1,
			Registry:  testTemplates(),
			StepDelay: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(slow.Close)
		j := submit(t, m, mrpc.JobSpec{
			Name: "wc-spec", Inputs: []string{"/in/doc"}, OutputDir: "/out/spec",
			NumReducers: 2,
		})
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			m.mu.Lock()
			w := m.workers["w-slow"]
			held := w != nil && w.runs(j.ID, mrpc.PhaseMap, -1)
			m.mu.Unlock()
			if held {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the master never assigned the straggler a map")
			}
		}
		tr.startWorkers(t, c, m, 3, nil)
		res := waitJob(t, j)
		checkGolden(t, "speculation", c, res.OutputFiles)
		if res.Counters.SpecLaunched == 0 {
			t.Error("no speculative attempt launched against a 100x straggler")
		}
		specCap := int64(2)
		if n := int64(len(j.maps)+len(j.reduces)) / 4; n > specCap {
			specCap = n
		}
		if res.Counters.SpecLaunched > specCap {
			t.Errorf("speculative attempts %d exceed cap %d", res.Counters.SpecLaunched, specCap)
		}
	})
}

// TestDistributedFairShare runs two tenants with 3:1 weights over a
// saturated fleet and checks the weighted tenant finishes first while
// both produce correct output.
func TestDistributedFairShare(t *testing.T) {
	eachTransport(t, func(t *testing.T, tr transport) {
		c := testCluster(4, 128)
		if err := writeCorpus(c, "/in/a", wcCorpus(200)); err != nil {
			t.Fatal(err)
		}
		if err := writeCorpus(c, "/in/b", wcCorpus(200)); err != nil {
			t.Fatal(err)
		}
		m := startMaster(t, tr, c)
		tr.startWorkers(t, c, m, 2, map[int]time.Duration{0: 50 * time.Microsecond, 1: 50 * time.Microsecond})
		m.SetTenantWeight("heavy", 3)
		m.SetTenantWeight("light", 1)
		ja, err := m.Submit(mrpc.JobSpec{
			Name: "wc", Inputs: []string{"/in/a"}, OutputDir: "/out/fa", NumReducers: 2,
		}, "heavy")
		if err != nil {
			t.Fatal(err)
		}
		jb, err := m.Submit(mrpc.JobSpec{
			Name: "wc", Inputs: []string{"/in/b"}, OutputDir: "/out/fb", NumReducers: 2,
		}, "light")
		if err != nil {
			t.Fatal(err)
		}
		ra := waitJob(t, ja)
		rb := waitJob(t, jb)
		if ra.Counters.OutputRecords == 0 || rb.Counters.OutputRecords == 0 {
			t.Fatal("a tenant produced no output")
		}
		if ra.Counters.OutputRecords != rb.Counters.OutputRecords {
			t.Errorf("identical corpora produced %d vs %d output records",
				ra.Counters.OutputRecords, rb.Counters.OutputRecords)
		}
	})
}

// TestProxyStore exercises the out-of-process storage path: create,
// stat, ranged reads, rename and delete through the master's DFS
// proxy endpoints.
func TestProxyStore(t *testing.T) {
	c := testCluster(3, 64)
	m := startMaster(t, transports[0], c)
	ps := NewProxyStore(context.Background(), m.URL())

	w, err := ps.Create("/px/file", "")
	if err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("0123456789abcdef", 64) // 1 KiB, >1 block
	if _, err := w.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sz, err := ps.Stat("/px/file"); err != nil || sz != int64(len(payload)) {
		t.Fatalf("stat = %d, %v; want %d", sz, err, len(payload))
	}
	f, err := ps.Open("/px/file", "")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if _, err := f.ReadAt(buf, 500); err != nil {
		t.Fatal(err)
	}
	if string(buf) != payload[500:600] {
		t.Error("ranged read mismatch")
	}
	if err := ps.Rename("/px/file", "/px/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Stat("/px/file"); !IsNotFound(err) {
		t.Fatalf("stat after rename: %v", err)
	}
	if err := ps.Delete("/px/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Open("/px/moved", ""); !IsNotFound(err) {
		t.Fatalf("open after delete: %v", err)
	}
}

// TestDistributedProxyWorkers runs a full job with workers that reach
// storage only through the master's DFS proxy — the out-of-process
// deployment shape — and checks output equality with a direct run.
func TestDistributedProxyWorkers(t *testing.T) {
	c := testCluster(4, 256)
	if err := writeCorpus(c, "/in/doc", wcCorpus(150)); err != nil {
		t.Fatal(err)
	}
	ref, err := Run(c, Config{
		Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/psp",
		Mapper: wordCountMapper, Reducer: sumReducer, Combiner: sumReducer,
		NumReducers: 2, ShuffleMemory: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := startMaster(t, transports[0], c)
	for i := 0; i < 2; i++ {
		w, err := StartWorker(WorkerConfig{
			ID:       fmt.Sprintf("pw%d", i),
			Master:   m.URL(),
			Slots:    2, // Store nil → proxy
			Registry: testTemplates(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	j, err := m.Submit(mrpc.JobSpec{
		Name: "wc", Inputs: []string{"/in/doc"}, OutputDir: "/out/pd",
		NumReducers: 2, ShuffleMemory: 1024,
	}, "bio")
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	want := readParts(t, c, ref.OutputFiles)
	got := readParts(t, c, res.OutputFiles)
	for name, wb := range want {
		if string(got[name]) != string(wb) {
			t.Errorf("%s differs through the proxy store", name)
		}
	}
}
