package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/mapreduce"
	"repro/internal/mrpc"
	"repro/internal/readcache"
	"repro/internal/replication"
	"repro/internal/units"
)

// sizing is the data scale of the workloads. fullSize is the
// benchmark; toySize lets the package's tests run every workload in a
// second or two.
type sizing struct {
	hotObjects    int
	coldObjects   int
	coldSize      int64
	corpusSize    int
	ingestPreload int     // batches ingest-durable's set-up registers
	setups        int     // most set-ups timed per run: the measured one and the repeats after the rounds
	setupBudget   float64 // stop repeating once set-ups and the teardowns between them took this long
	tracedScale   float64 // share of workloadDef.TracedOps to replay
}

var (
	fullSize = sizing{hotObjects: hotObjects, coldObjects: coldObjects, coldSize: coldSize, corpusSize: corpusSize, ingestPreload: 32, setups: 25, setupBudget: 1.0, tracedScale: 1}
	toySize  = sizing{hotObjects: 16, coldObjects: 8, coldSize: 512 << 10, corpusSize: 64 << 10, ingestPreload: 2, setups: 1, tracedScale: 0.05}
)

// runConfig is one workload run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string // scratch and trace files go here
	Size     sizing
}

// metricValue is one reported number; Rounds holds the per-round
// values behind an end-to-end median.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// result is everything one workload run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Rounds    int                    `json:"rounds"`
	Clients   int                    `json:"clients"`
	OpsDigest string                 `json:"ops_digest"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   int                    `json:"latency_samples"`
	Setups    int                    `json:"setups_timed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setLayer records a per-layer metric, taking the unit from the spec.
// A metric the spec does not list for this workload is left out.
func (r *result) setLayer(name string, v float64) {
	for _, m := range perLayer {
		if m.Name == name {
			if m.appliesTo(r.Workload) {
				r.PerLayer[name] = metricValue{Value: v, Unit: m.Unit}
			}
			return
		}
	}
	panic("bench: per-layer metric not in spec: " + name)
}

// env is the state of one workload run.
type env struct {
	cfg    runConfig
	def    workloadDef
	pay    *payloads
	st     *stack
	ctx    context.Context
	cancel context.CancelFunc

	walDir    string
	preloaded []ack        // what ingest-durable's set-up registered
	batches   atomic.Int64 // ingest batches acked so far, all clients
	corpus    []byte
	tally     map[string]int
}

func (e *env) scratch(name string) string {
	return filepath.Join(e.cfg.OutDir, "tmp", fmt.Sprintf("%s-%d-%s", e.def.Name, os.Getpid(), name))
}

// options is the facility each workload runs on.
func (e *env) options() facility.Options {
	sites := facility.Options{Sites: []string{"near", "far"}, MinReplicas: 2}
	switch e.def.Name {
	case "read-hot", "mixed-rw":
		// The hot set is half the budget: it fits, probation segment and all.
		sites.ReadCacheMemory = units.Bytes(2 * e.cfg.Size.hotObjects * hotSize)
		return sites
	case "read-cold":
		sites.ReadCacheMemory = units.Bytes(int64(e.cfg.Size.coldObjects) * e.cfg.Size.coldSize / 8)
		return sites
	case "ingest-durable":
		sites.ReadCacheMemory = 64 * units.MiB
		sites.WALDir = e.walDir
		sites.GroupCommitInterval = 0
		return sites
	default: // compute-wc
		return facility.Options{DFSNodes: 4, DFSBlockSize: 256 * units.KiB, ComputeWorkers: 2, ComputeSlots: 2}
	}
}

func (e *env) put(path string, data []byte) error {
	w, err := e.st.fac.Layer.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// setup starts the facility and loads the workload's data; the caller
// times it. It ends when replication has caught up, so the rounds
// start on a quiet facility.
func (e *env) setup() error {
	if e.def.Name == "ingest-durable" {
		e.walDir = e.scratch("wal")
		if err := os.RemoveAll(e.walDir); err != nil {
			return err
		}
		if err := os.MkdirAll(e.walDir, 0o755); err != nil {
			return err
		}
	}
	st, err := startStack(e.options())
	if err != nil {
		return err
	}
	e.st = st
	sz := e.cfg.Size
	switch e.def.Name {
	case "read-hot":
		for i := 0; i < sz.hotObjects; i++ {
			if err := e.put(hotPath(i), e.pay.make(objID(spaceHot, 0, i), hotSize)); err != nil {
				return err
			}
		}
	case "mixed-rw":
		for i := 0; i < sz.hotObjects; i++ {
			if err := e.put(sharedPath(i), e.pay.make(objID(spaceShared, 0, i), hotSize)); err != nil {
				return err
			}
		}
	case "read-cold":
		buf := make([]byte, sz.coldSize)
		for i := 0; i < sz.coldObjects; i++ {
			e.pay.fill(buf, objID(spaceCold, 0, i), 0)
			if err := e.put(coldPath(i), buf); err != nil {
				return err
			}
		}
	case "ingest-durable":
		// The facility the clients ingest into already holds a catalog:
		// set-up registers ingestPreload batches durably, through the
		// gateway's handler.
		e.preloaded = nil
		for b := 0; b < sz.ingestPreload; b++ {
			acks, err := e.ingestInProcess(e.ingestObjects(preloadClient, op{Obj: objID(spaceIngest, preloadClient, b*ingestBatch)}))
			if err != nil {
				return err
			}
			e.preloaded = append(e.preloaded, acks...)
		}
	case "compute-wc":
		// The corpus, and one verified job: when the rounds begin the
		// workers are registered and have run every task kind once.
		if err := e.put("/hdfs"+corpusPath, e.corpus); err != nil {
			return err
		}
		out, err := st.fac.RunNamedJob(wordcountSpec(jobOutputDir("setup", 0)), benchTenant)
		if err != nil {
			return err
		}
		if err := e.checkJobOutput(out.OutputFiles); err != nil {
			return err
		}
	}
	if r := st.fac.Replicator; r != nil {
		r.Wait()
	}
	return nil
}

func (e *env) teardown() {
	if e.st != nil {
		e.st.close()
		e.st = nil
	}
	if e.walDir != "" {
		_ = os.RemoveAll(e.walDir)
	}
}

// gen returns client c's op generator.
func (e *env) gen(c int) opGen {
	sz := e.cfg.Size
	switch e.def.Name {
	case "read-hot":
		return newZipfGen(clientRand(e.cfg.Seed, c), sz.hotObjects, spaceHot, hotPath)
	case "read-cold":
		return &coldGen{rng: clientRand(e.cfg.Seed, c), objects: sz.coldObjects, size: sz.coldSize}
	case "ingest-durable":
		return &ingestGen{client: c}
	case "mixed-rw":
		return newMixedGen(e.cfg.Seed, c, sz.hotObjects)
	default:
		return &jobGen{}
	}
}

// ingestObjects builds batch o of client c: 16 new 4 KiB objects with
// a project and one tag.
func (e *env) ingestObjects(c int, o op) []gateway.IngestObject {
	batch := int(o.Obj&0xffffffffff) / ingestBatch
	objs := make([]gateway.IngestObject, ingestBatch)
	for i := range objs {
		objs[i] = gateway.IngestObject{
			Path:    ingestPath(c, batch, i),
			Project: ingestProject,
			Data:    e.pay.make(o.Obj+uint64(i), ingestObjSize),
			Tags:    []string{"raw"},
		}
	}
	return objs
}

// checkIngest verifies an ingest reply and returns its acks.
func checkIngest(objs []gateway.IngestObject, res gateway.IngestResult) ([]ack, bool) {
	if res.Registered != len(objs) || len(res.Results) != len(objs) {
		return nil, false
	}
	acks := make([]ack, len(objs))
	for i, r := range res.Results {
		if r.Error != "" || r.DatasetID == "" || r.Path != objs[i].Path || int(r.Size) != len(objs[i].Data) {
			return nil, false
		}
		acks[i] = ack{Path: r.Path, ID: r.DatasetID}
	}
	return acks, true
}

// ingestInProcess posts one batch to the gateway's handler without the
// socket, checks the reply like a client would and returns its acks.
func (e *env) ingestInProcess(objs []gateway.IngestObject) ([]ack, error) {
	body, err := json.Marshal(gateway.IngestRequest{Objects: objs})
	if err != nil {
		return nil, err
	}
	w, err := e.st.serve(http.MethodPost, "/v1/ingest", http.Header{"Content-Type": {"application/json"}}, body, true)
	if err != nil {
		return nil, err
	}
	var res gateway.IngestResult
	if err := json.NewDecoder(w.keep).Decode(&res); err != nil {
		return nil, err
	}
	acks, ok := checkIngest(objs, res)
	if !ok {
		return nil, fmt.Errorf("in-process ingest of %s: batch not fully registered", objs[0].Path)
	}
	return acks, nil
}

func wordcountSpec(jobDir string) mrpc.JobSpec {
	return mrpc.JobSpec{Name: "wordcount", Inputs: []string{corpusPath}, OutputDir: jobDir, NumReducers: 2}
}

// checkJobOutput reads a job's part files straight from the DFS,
// compares them with the generator's tally and deletes them, so the
// DFS stays the same size all run.
func (e *env) checkJobOutput(files []string) error {
	dfs := e.st.fac.DFS
	var parts [][]byte
	for _, f := range files {
		data, err := dfs.ReadFile(f, "")
		if err != nil {
			return err
		}
		parts = append(parts, data)
		_ = dfs.Delete(f) // best effort: a leftover file only costs memory
	}
	if !checkWordcount(parts, e.tally) {
		return fmt.Errorf("wordcount output differs from the generator's tally")
	}
	return nil
}

// do performs one op through the gateway client, times it and then
// verifies what came back. The clock stops at the last byte of the
// reply; generating inputs and checking outputs are outside it.
func (e *env) do(cl *benchClient, o op) (t0 time.Time, d time.Duration, ok bool) {
	switch o.Kind {
	case opGet, opGetRange:
		t0 = time.Now()
		var got []byte
		var rc io.ReadCloser
		var err error
		if o.Kind == opGet {
			rc, err = cl.c.Get(e.ctx, o.Path)
		} else {
			rc, err = cl.c.GetRange(e.ctx, o.Path, o.Off, o.Len)
		}
		if err == nil {
			got, err = cl.readBody(rc, o.Len)
		}
		d = time.Since(t0)
		cl.served.Add(int64(len(got)))
		return t0, d, err == nil && e.pay.check(got, o.Obj, o.Off)
	case opPut:
		data := e.pay.make(o.Obj, int(o.Len))
		t0 = time.Now()
		res, err := cl.c.PutObject(e.ctx, o.Path, data, "bench-rw")
		d = time.Since(t0)
		cl.puts.Add(1)
		return t0, d, err == nil && int64(res.Size) == o.Len && res.DatasetID != ""
	case opDelete:
		t0 = time.Now()
		res, err := cl.c.Remove(e.ctx, o.Path)
		d = time.Since(t0)
		return t0, d, err == nil && res.Removed
	case opIngest:
		return e.doIngest(cl, e.ingestObjects(cl.idx, o))
	case opJob:
		return e.doJob(cl, o.Path)
	}
	panic("bench: unknown op kind")
}

// doIngest posts one batch and records its acks.
func (e *env) doIngest(cl *benchClient, objs []gateway.IngestObject) (t0 time.Time, d time.Duration, ok bool) {
	t0 = time.Now()
	res, err := cl.c.Ingest(e.ctx, objs)
	d = time.Since(t0)
	if err != nil {
		return t0, d, false
	}
	acks, ok := checkIngest(objs, res)
	cl.acked = append(cl.acked, acks...)
	cl.puts.Add(int64(len(acks)))
	if n := e.batches.Add(1); n > ingestRSSFrom && n <= ingestRSSTo {
		cl.rssSum += peakRSSMB()
		cl.rssReads++
	}
	return t0, d, ok
}

// doJob submits a wordcount, waits for it, reads its part files and
// compares the counts with the generator's tally. The output is
// deleted afterwards, behind the gateway's back, so the DFS stays the
// same size all run.
func (e *env) doJob(cl *benchClient, jobDir string) (t0 time.Time, d time.Duration, ok bool) {
	t0 = time.Now()
	st, err := cl.c.SubmitJob(e.ctx, gateway.JobRequest{Job: "wordcount", Inputs: []string{corpusPath}, OutputDir: jobDir, NumReducers: 2})
	if err == nil {
		st, err = cl.c.WaitJob(e.ctx, st.ID, time.Millisecond)
	}
	var parts [][]byte
	if err == nil && st.State == gateway.JobDone {
		for _, f := range st.OutputFiles {
			var data []byte
			if data, err = cl.c.ReadObject(e.ctx, "/hdfs"+f); err != nil {
				break
			}
			parts = append(parts, data)
		}
	}
	d = time.Since(t0)
	ok = err == nil && st.State == gateway.JobDone && checkWordcount(parts, e.tally)
	for _, f := range st.OutputFiles {
		_ = e.st.fac.DFS.Delete(f) // best effort: a leftover file only costs memory
	}
	return t0, d, ok
}

// counters is a snapshot of the modules' public Stats()/Report(); the
// per-layer counter metrics are deltas of two of these.
type counters struct {
	cache    readcache.Stats
	repl     replication.Stats
	fed      replication.FederatedStats
	rejected int64
	snaps    int64
	master   mapreduce.MasterStats
	dfs      dfs.Report
	mem      runtime.MemStats
}

func (e *env) snapshot() counters {
	f := e.st.fac
	var c counters
	if f.ReadCache != nil {
		c.cache = f.ReadCache.Stats()
	}
	if f.Replicator != nil {
		c.repl = f.Replicator.Stats()
		c.fed = f.Federation.FedStats()
	}
	if f.Compute != nil {
		c.master = f.Compute.Stats()
	}
	c.rejected = e.st.rejected()
	c.snaps = f.Meta.Snapshots()
	c.dfs = f.DFS.Report()
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the deltas around the measured rounds into the
// per-layer counter metrics. ops is the verified ops of the rounds,
// puts the objects stored in them, served the payload bytes read.
func counterMetrics(res *result, a, b counters, ops, puts, served int64) {
	set := res.setLayer
	kops := float64(ops) / 1000
	hits := float64(b.cache.MemHits + b.cache.DiskHits - a.cache.MemHits - a.cache.DiskHits)
	misses := float64(b.cache.Misses - a.cache.Misses)
	set("readcache.hit_ratio", ratio(hits, hits+misses))
	set("readcache.fill_bytes_per_byte_served", ratio(float64(b.cache.FillBytes-a.cache.FillBytes), float64(served)))
	set("readcache.evictions_per_kop", ratio(float64(b.cache.Evictions-a.cache.Evictions), kops))
	set("readcache.invalidations_per_kop", ratio(float64(b.cache.Invalidations-a.cache.Invalidations), kops))
	set("readcache.dedups", float64(b.cache.Dedups-a.cache.Dedups))
	set("replication.transfers_per_put", ratio(float64(b.repl.Transfers-a.repl.Transfers), float64(puts)))
	set("replication.transfer_mb", float64(b.repl.TransferBytes-a.repl.TransferBytes)/1e6)
	set("replication.failovers", float64(b.fed.Failovers+b.fed.MidStream-a.fed.Failovers-a.fed.MidStream))
	set("gateway.rejected", float64(b.rejected-a.rejected))
	set("metadata.snapshots", float64(b.snaps-a.snaps))

	jobs := float64(b.master.Jobs - a.master.Jobs)
	tasks := float64(b.master.MapTasks + b.master.ReduceTasks - a.master.MapTasks - a.master.ReduceTasks)
	set("mapreduce.tasks_per_job", ratio(tasks, jobs))
	set("mapreduce.shuffle_bytes_per_job", ratio(float64(b.master.ShuffleBytes-a.master.ShuffleBytes), jobs))
	set("mapreduce.remote_shuffle_bytes_per_job", ratio(float64(b.master.RemoteBytes-a.master.RemoteBytes), jobs))
	set("mapreduce.retries", float64(b.master.Retries-a.master.Retries))
	set("mapreduce.spec_launched", float64(b.master.SpecLaunched-a.master.SpecLaunched))
	local := float64(b.dfs.LocalReads - a.dfs.LocalReads)
	set("dfs.local_read_ratio", ratio(local, local+float64(b.dfs.RemoteReads-a.dfs.RemoteReads)))

	set("proc.alloc_kb_per_op", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024, float64(ops)))
	set("proc.allocs_per_op", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), float64(ops)))
	set("proc.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
}

// newEnv generates a run's inputs from its seed.
func newEnv(cfg runConfig) (*env, error) {
	def, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	e := &env{cfg: cfg, def: def, pay: newPayloads(cfg.Seed)}
	// No op waits forever: a hung facility turns into failed ops and a
	// result that says so, inside the driver's time limit.
	e.ctx, e.cancel = context.WithTimeout(context.Background(), time.Duration(cfg.Seconds*float64(time.Second))+2*time.Minute)
	if def.Name == "compute-wc" {
		e.corpus, e.tally = makeCorpus(cfg.Seed, cfg.Size.corpusSize)
	}
	return e, nil
}

// digest hashes what the run will feed the facility: the payload
// source (or the corpus) and the head of every client's op sequence.
func (e *env) digest() string {
	inputs := e.pay.base
	if e.corpus != nil {
		inputs = e.corpus
	}
	gens := make([]opGen, e.def.Clients)
	for c := range gens {
		gens[c] = e.gen(c)
	}
	return opsDigest(inputs, gens)
}

// timeSetup sets the facility up and reports how long it took.
func (e *env) timeSetup() (float64, error) {
	t0 := time.Now()
	err := e.setup()
	return time.Since(t0).Seconds(), err
}

// repeatSetups tears the measured facility down and times further
// set-ups, so that setup_s is a median and not one draw. It runs after
// the rounds because a process started on a box that has idled for a
// few seconds is slow for its first second or more (half of the
// read-hot runs begun after a 3 s pause set up in 0.11 s, not 0.063 s):
// the first set-up of a run is one sample, not the verdict. The budget
// covers the teardowns as well: closing a facility that has run a job
// takes 2 s four times in ten (mrpc.Server.Close waits out its Shutdown
// timeout on a connection a client dialed and never used).
func (e *env) repeatSetups(first float64) ([]float64, error) {
	seconds := []float64{first}
	begin := time.Now()
	for len(seconds) < e.cfg.Size.setups && (len(seconds) < 3 || time.Since(begin).Seconds() < e.cfg.Size.setupBudget) {
		e.teardown()
		// Hand the torn-down facility's memory back to the OS, so that
		// every set-up faults its pages in like the first one did. Left
		// to the runtime, some reuse the old heap and some do not.
		debug.FreeOSMemory()
		d, err := e.timeSetup()
		if err != nil {
			return nil, err
		}
		seconds = append(seconds, d)
	}
	return seconds, nil
}

// runWorkload runs one workload: set-up, warm-up, the measured rounds
// with no spans recorded, the drain, the traced pass when asked for,
// the recovery check, and the repeated set-ups.
func runWorkload(cfg runConfig) (*result, error) {
	e, err := newEnv(cfg)
	if err != nil {
		return nil, err
	}
	def := e.def
	res := &result{
		Workload: def.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Rounds: rounds, Clients: def.Clients,
		OpsDigest: e.digest(), EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{},
	}
	defer e.cancel()
	defer e.teardown()

	firstSetup, err := e.timeSetup()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}

	clients := make([]*benchClient, def.Clients)
	for c := range clients {
		cl, err := e.st.newClient(c, max(hotSize, coldRange))
		if err != nil {
			return nil, err
		}
		defer cl.close()
		clients[c] = cl
	}

	// Warm-up and rounds. phase is -1 during warm-up, the round index
	// during the rounds, and rounds once the clients should stop. An
	// op belongs to the round it completes in.
	var phase atomic.Int32
	phase.Store(-1)
	var wg sync.WaitGroup
	for c, cl := range clients {
		g := e.gen(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for phase.Load() < rounds {
				_, d, ok := e.do(cl, g.next())
				cl.attempted++
				if !ok {
					cl.failed++
					continue
				}
				if r := phase.Load(); r >= 0 && r < rounds {
					cl.lat[r] = append(cl.lat[r], d)
				}
			}
		}()
	}
	roundLen := time.Duration(cfg.Seconds / rounds * float64(time.Second))
	warm := time.Duration(cfg.Seconds * warmupShare * float64(time.Second))
	if warm < 50*time.Millisecond {
		warm = 50 * time.Millisecond
	}
	time.Sleep(warm)
	putsBefore, servedBefore := clientTotals(clients)
	before := e.snapshot()
	var wall, cpu [rounds + 1]time.Duration
	start := time.Now()
	cpu[0] = cpuTime()
	phase.Store(0)
	for r := 1; r <= rounds; r++ {
		time.Sleep(time.Until(start.Add(time.Duration(r) * roundLen)))
		wall[r], cpu[r] = time.Since(start), cpuTime()
		phase.Store(int32(r))
	}
	wg.Wait()
	after := e.snapshot()
	puts, served := clientTotals(clients)
	puts, served = puts-putsBefore, served-servedBefore
	rss := peakRSSMB()
	if def.Name == "ingest-durable" {
		var sum float64
		var reads int
		for _, cl := range clients {
			sum, reads = sum+cl.rssSum, reads+cl.rssReads
		}
		if reads == ingestRSSTo-ingestRSSFrom {
			rss = sum / float64(reads)
		} else {
			res.note("peak_rss_mb: fewer than %d batches were acked, so it is the value at the end of the rounds", ingestRSSTo)
		}
	}
	res.EndToEnd["peak_rss_mb"] = metricValue{Value: rss, Unit: "MB"}
	goroutines := runtime.NumGoroutine()

	// End-to-end metrics: one value per round, their midmean reported.
	var opsPerS, p50, p95, cpuPerOp []float64
	var ops int64
	for r := 0; r < rounds; r++ {
		var lat []time.Duration
		for _, cl := range clients {
			lat = append(lat, cl.lat[r]...)
		}
		latMS := durationsToMS(lat)
		n := float64(len(lat))
		ops += int64(len(lat))
		opsPerS = append(opsPerS, n/(wall[r+1]-wall[r]).Seconds())
		p50 = append(p50, quantile(latMS, 0.50))
		p95 = append(p95, quantile(latMS, 0.95))
		cpuPerOp = append(cpuPerOp, ratio(float64(cpu[r+1]-cpu[r])/1e6, n))
	}
	for _, cl := range clients {
		res.Attempted += cl.attempted
		res.Failed += cl.failed
	}
	res.Samples = int(ops)
	res.EndToEnd["ops_per_s"] = metricValue{Value: midmean(opsPerS), Unit: "1/s", Rounds: opsPerS}
	res.EndToEnd["p50_ms"] = metricValue{Value: midmean(p50), Unit: "ms", Rounds: p50}
	res.EndToEnd["p95_ms"] = metricValue{Value: midmean(p95), Unit: "ms", Rounds: p95}

	// Per-layer counters from the same rounds.
	counterMetrics(res, before, after, ops, puts, served)
	res.setLayer("proc.goroutines_end", float64(goroutines))
	res.setLayer("client.fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	if r := e.st.fac.Replicator; r != nil {
		t0 := time.Now()
		r.Wait()
		res.setLayer("replication.drain_s", time.Since(t0).Seconds())
	}
	// CPU per op covers the rounds and the drain: work an op pushed into
	// the background is still that op's cost, whenever it runs. (Counting
	// the rounds alone, ingest-durable's figure swung by how much of the
	// replication backlog happened to land inside them.) The per-round
	// values are kept for the round-to-round noise.
	res.EndToEnd["cpu_ms_per_op"] = metricValue{Value: ratio(float64(cpuTime()-cpu[0])/1e6, float64(ops)), Unit: "ms", Rounds: cpuPerOp}

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
		if err := e.tracedPass(tr, res, clients[0]); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", def.Name, err)
		}
		if err := tr.write(filepath.Join(cfg.OutDir, "trace-"+def.Name+".json")); err != nil {
			return nil, err
		}
	}

	recovered := true
	if def.Name == "ingest-durable" {
		acked := e.preloaded
		for _, cl := range clients {
			acked = append(acked, cl.acked...)
		}
		var err error
		if recovered, err = e.reopenAndCheck(res, acked); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && recovered && res.Attempted > 0

	setups, err := e.repeatSetups(firstSetup)
	if err != nil {
		return nil, fmt.Errorf("%s: repeated set-up: %w", def.Name, err)
	}
	res.Setups = len(setups)
	res.EndToEnd["setup_s"] = metricValue{Value: median(setups), Unit: "s", Rounds: setups}
	return res, nil
}

// clientTotals sums the objects stored and payload bytes read so far.
func clientTotals(clients []*benchClient) (puts, served int64) {
	for _, cl := range clients {
		puts += cl.puts.Load()
		served += cl.served.Load()
	}
	return puts, served
}

// reopenAndCheck closes the facility and opens a new one on the same
// WAL directory: every dataset the gateway acknowledged must be there.
func (e *env) reopenAndCheck(res *result, acked []ack) (bool, error) {
	e.st.close()
	e.st = nil
	t0 := time.Now()
	fac, err := facility.New(e.options())
	if err != nil {
		return false, fmt.Errorf("reopen on %s: %w", e.walDir, err)
	}
	defer fac.Close()
	res.setLayer("metadata.recover_s", time.Since(t0).Seconds())
	found := checkRecovered(acked, func(path string) (string, bool) {
		ds, ok := fac.Meta.ByPath(path)
		return ds.ID, ok && ds.Project == ingestProject
	})
	res.setLayer("metadata.recovered_ratio", ratio(float64(found), float64(len(acked))))
	res.note("recovery: %d of %d acked datasets found after reopen; flush policy: %s", found, len(acked), flushPolicy)
	return found == len(acked) && len(acked) > 0, nil
}

// trimSites maps a federated /sites path to the federation's own.
func trimSites(path string) string { return strings.TrimPrefix(path, "/sites") }
