package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/mrpc"
	"repro/internal/obs"
	"repro/internal/units"
)

// Master is the job tracker, and the only scheduler: it owns job and
// task state machines, leases tasks to registered workers, detects
// worker death by missed heartbeats, re-executes lost work, launches
// speculative backups for stragglers, and arbitrates
// first-finisher-wins commits (rename of attempt-scoped output files,
// so a superseded attempt can never clobber a committed one). It is an
// mrpc.Control: workers in its own process call Register, Heartbeat
// and Complete directly (Run), and NewMaster also serves them over
// HTTP, beside a DFS proxy so out-of-process workers reach the
// cluster's storage through the same address they heartbeat to.
//
// Scheduling is multi-job fair-share: each heartbeat's free slots go
// to the runnable job with the smallest running-slots/weight ratio,
// weights being per-tenant — PR 8's tenant fairness, applied to
// compute.
//
// Dispatch does not wait for a clock: a heartbeat with free slots and
// nothing to take parks (handleHeartbeat) until wakeLocked, for at
// most one Heartbeat interval. State is bounded by the work in flight:
// settle folds a finished job's counters into settled and drops it.
type Master struct {
	cfg   MasterConfig
	store Store
	srv   *mrpc.Server // nil without a listener (Run)

	mu      sync.Mutex
	workers map[string]*mWorker
	jobs    map[string]*Job // unsettled jobs only
	jobSeq  int             // jobs ever submitted
	settled MasterStats     // cumulative counters of the jobs settle dropped
	wake    chan struct{}   // closed and replaced by wakeLocked
	parked  int             // heartbeat polls waiting on wake
	weights map[string]int  // tenant → fair-share weight (default 1)
	stopMon chan struct{}
	monWG   sync.WaitGroup
	closed  bool
}

// MasterConfig configures a master.
type MasterConfig struct {
	Cluster  *dfs.Cluster
	Registry Registry
	// Addr is the control-plane listen address ("" = loopback
	// ephemeral — in-process workers and tests).
	Addr string
	// Heartbeat is the cadence workers are told to beat at
	// (default 10ms — laptop scale; a real deployment uses seconds).
	Heartbeat time.Duration
	// Lease is the liveness timeout: a worker silent for this long is
	// presumed dead and its in-flight attempts are re-queued
	// (default 8× Heartbeat).
	Lease time.Duration
	// ShuffleMemory is the default spill budget for jobs that do not
	// set one.
	ShuffleMemory units.Bytes
	// Tracer, when set, records a master.job span for every submitted
	// job that carries a trace ID and attaches worker task-attempt
	// spans arriving in completions — the compute half of the
	// facility's trace ring.
	Tracer *obs.Tracer
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 10 * time.Millisecond
	}
	if c.Lease <= 0 {
		c.Lease = 8 * c.Heartbeat
	}
	if c.Registry == nil {
		c.Registry = Builtin()
	}
	return c
}

// mWorker is the master's view of one worker.
type mWorker struct {
	id       string
	addr     string
	node     string
	slots    int
	lastBeat time.Time
	alive    bool
	kill     []mrpc.AttemptID
	attempts map[mrpc.AttemptID]*mAttempt
}

// runs reports whether the worker already runs an attempt of the
// job's phase — of that very task, unless task is negative.
func (w *mWorker) runs(job, phase string, task int) bool {
	for id := range w.attempts {
		if id.Job == job && id.Phase == phase && (task < 0 || id.Task == task) {
			return true
		}
	}
	return false
}

// mAttempt is one in-flight attempt.
type mAttempt struct {
	id       mrpc.AttemptID
	worker   string
	started  time.Time
	progress float64
	spec     bool
}

// mTask is one task's state machine: pending → running attempts →
// committed, with failure re-queues and lost-output resurrection.
type mTask struct {
	committed   bool
	queued      bool
	failures    int
	nextAttempt int
	deferUntil  time.Time         // phase-spread: yield to other workers until then
	running     map[int]*mAttempt // attempt number → info
	specStarted bool
	runs        []mrpc.RunRef // committed map output geometry
	runWorker   string        // worker whose shuffle server serves the runs
	outFile     string        // committed final output (reduce / map-only)
}

// Job is a submitted distributed job.
type Job struct {
	ID     string
	master *Master
	tenant string
	spec   mrpc.JobSpec
	cfg    Config
	splits []split
	shuf   string
	ctr    Counters
	start  time.Time

	maps, reduces            []mTask
	mapsDone, redsDone       int
	pendingMaps, pendingReds []int
	specQ                    []mrpc.TaskKey
	specLaunched, specCap    int
	runningSlots             int

	failed  error
	doneCh  chan struct{}
	span    *obs.Span // master.job span; nil untraced
	outputs []string
	dur     time.Duration   // settled wall time
	mapDur  []time.Duration // committed attempt durations, per phase
	redDur  []time.Duration
}

// NewMaster starts a master and its control-plane server.
func NewMaster(cfg MasterConfig) (*Master, error) {
	m, err := newMaster(cfg)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mrpc.Mount(mux, m)
	m.mountProxy(mux)
	if m.srv, err = mrpc.Serve(m.cfg.Addr, mux); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// newMaster starts a master nobody can dial: the workers of its own
// process hold it as their mrpc.Control.
func newMaster(cfg MasterConfig) (*Master, error) {
	cfg = cfg.withDefaults()
	if cfg.Cluster == nil {
		return nil, errors.New("mapreduce: master needs a cluster")
	}
	m := &Master{
		cfg:     cfg,
		store:   NewDFSStore(cfg.Cluster),
		workers: make(map[string]*mWorker),
		jobs:    make(map[string]*Job),
		wake:    make(chan struct{}),
		weights: make(map[string]int),
		stopMon: make(chan struct{}),
	}
	m.monWG.Add(1)
	go m.monitor()
	return m, nil
}

// URL is the control-plane base URL of a master NewMaster started.
func (m *Master) URL() string { return m.srv.URL() }

var _ mrpc.Control = (*Master)(nil)

// Close stops the monitor and the server. Running jobs fail, and
// every parked poll is answered first, so the server's shutdown finds
// no handler to wait out.
func (m *Master) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		j.fail(errMasterClosed)
	}
	m.wakeLocked()
	m.mu.Unlock()
	close(m.stopMon)
	m.monWG.Wait()
	if m.srv != nil {
		m.srv.Close()
	}
}

// SetTenantWeight sets a tenant's fair-share weight (default 1);
// slots are granted to the runnable job minimizing running/weight.
func (m *Master) SetTenantWeight(tenant string, w int) {
	if w <= 0 {
		w = 1
	}
	m.mu.Lock()
	m.weights[tenant] = w
	m.mu.Unlock()
}

// LiveWorkers returns the IDs of workers currently considered alive.
func (m *Master) LiveWorkers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, w := range m.workers {
		if w.alive {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// MasterStats is a point-in-time aggregate across every job the
// master has seen, for metrics exposition: the facility samples it
// at scrape time, so the scheduler's hot path carries no new cost.
// The task and byte counters are cumulative over the master's life;
// a scrape walks only the jobs still running.
type MasterStats struct {
	Workers      int // registered workers
	LiveWorkers  int
	Jobs         int // total jobs submitted
	RunningJobs  int
	RunningSlots int
	MapTasks     int64
	ReduceTasks  int64
	Retries      int64
	SpecLaunched int64
	SpecWon      int64
	ShuffleBytes int64
	RemoteBytes  int64
}

// Stats aggregates job counters and worker liveness.
func (m *Master) Stats() MasterStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.settled
	s.Workers = len(m.workers)
	for _, w := range m.workers {
		if w.alive {
			s.LiveWorkers++
		}
	}
	s.Jobs = m.jobSeq
	s.RunningJobs = len(m.jobs)
	for _, j := range m.jobs {
		s.RunningSlots += j.runningSlots
		s.addCounters(j.ctr)
	}
	return s
}

func (s *MasterStats) addCounters(c Counters) {
	s.MapTasks += c.MapTasks
	s.ReduceTasks += c.ReduceTasks
	s.Retries += c.Retries
	s.SpecLaunched += c.SpecLaunched
	s.SpecWon += c.SpecWon
	s.ShuffleBytes += c.ShuffleBytes
	s.RemoteBytes += c.RemoteShuffleBytes
}

// Submit admits a job: resolves its template, builds splits, and
// queues every map task. Parked polls are answered with them at once.
func (m *Master) Submit(spec mrpc.JobSpec, tenant string) (*Job, error) {
	cfg, err := m.cfg.Registry.Resolve(spec)
	if err != nil {
		return nil, err
	}
	if cfg.ShuffleMemory == 0 {
		cfg.ShuffleMemory = m.cfg.ShuffleMemory
	}
	// Stamp the resolved shape back into the spec so every worker
	// resolves the identical config (spill boundaries, and with them
	// the merge order, must not depend on who resolved it).
	spec.NumReducers = cfg.NumReducers
	spec.ShuffleMemory = int64(cfg.ShuffleMemory)
	splits, err := buildSplits(m.cfg.Cluster, cfg.Inputs)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errMasterClosed
	}
	m.jobSeq++
	j := &Job{
		ID:      fmt.Sprintf("mj-%06d", m.jobSeq),
		master:  m,
		tenant:  tenant,
		spec:    spec,
		cfg:     cfg,
		splits:  splits,
		shuf:    fmt.Sprintf("%s/_shuffle-d%d", trimDir(cfg.OutputDir), shuffleEpoch.Add(1)),
		start:   time.Now(),
		maps:    make([]mTask, len(splits)),
		doneCh:  make(chan struct{}),
		specCap: 2,
	}
	if !cfg.MapOnly {
		j.reduces = make([]mTask, cfg.NumReducers)
		j.ctr.ReduceTasks += int64(cfg.NumReducers)
	}
	if n := (len(splits) + len(j.reduces)) / 4; n > j.specCap {
		j.specCap = n
	}
	j.ctr.MapTasks += int64(len(splits))
	for i := range j.maps {
		j.maps[i].running = make(map[int]*mAttempt)
		j.pendingMaps = append(j.pendingMaps, i)
		j.maps[i].queued = true
	}
	for i := range j.reduces {
		j.reduces[i].running = make(map[int]*mAttempt)
	}
	if spec.Trace != "" {
		j.span = m.cfg.Tracer.SpanFor(spec.Trace, "master.job")
		j.span.Annotate("%s %s (%d maps, %d reduces)", j.ID, spec.Name, len(j.maps), len(j.reduces))
	}
	m.jobs[j.ID] = j
	if j.mapsDone == len(j.maps) { // zero-split job
		if cfg.MapOnly {
			j.finalize()
		} else {
			j.enqueueReduces()
		}
	}
	m.wakeLocked()
	return j, nil
}

// Wait blocks until the job finishes and returns its result.
func (j *Job) Wait() (*Result, error) {
	<-j.doneCh
	j.master.mu.Lock()
	defer j.master.mu.Unlock()
	if j.failed != nil {
		return nil, j.failed
	}
	return &Result{
		Counters:    j.ctr,
		Duration:    j.dur,
		OutputFiles: append([]string(nil), j.outputs...),
	}, nil
}

// ---- protocol handlers ----

// Register implements mrpc.Control.
func (m *Master) Register(_ context.Context, req *mrpc.RegisterRequest) (*mrpc.RegisterReply, error) {
	if req.Worker == "" || req.Slots <= 0 {
		return nil, errors.New("mapreduce: register needs worker id and slots")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errMasterClosed
	}
	// Re-registration starts clean. A previous incarnation still inside
	// its lease (a worker restarted faster than the lease) is dead all
	// the same: its attempts are struck and re-queued now, or they would
	// sit in their tasks' running sets for ever.
	if prev, ok := m.workers[req.Worker]; ok && prev.alive {
		m.declareDeadLocked(prev)
	}
	m.workers[req.Worker] = &mWorker{
		id:       req.Worker,
		addr:     req.Addr,
		node:     req.Node,
		slots:    req.Slots,
		lastBeat: time.Now(),
		alive:    true,
		attempts: make(map[mrpc.AttemptID]*mAttempt),
	}
	return &mrpc.RegisterReply{
		HeartbeatMS: m.cfg.Heartbeat.Milliseconds(),
		LeaseMS:     m.cfg.Lease.Milliseconds(),
	}, nil
}

// Heartbeat implements mrpc.Control: it renews the worker's lease and
// answers with kill orders and up to Free assignments — never past the
// slots the worker registered with, whatever it claims. A heartbeat
// that offers free slots and gets neither parks until wakeLocked or one
// Heartbeat interval — the worker then beats again at once, so it is
// heard from as often as its ticker had it and lease arithmetic is
// unchanged. A caller whose context ended while parked (it hung up, or
// its deadline passed) is handed nothing: tasks assigned to nobody
// would sit out a full lease.
func (m *Master) Heartbeat(ctx context.Context, req *mrpc.HeartbeatRequest) (*mrpc.HeartbeatReply, error) {
	var timeout <-chan time.Time
	m.mu.Lock()
	defer m.mu.Unlock()
	report := req.Running // read once, on arrival
	for expired := false; ; {
		if m.closed {
			return nil, errMasterClosed
		}
		w, ok := m.workers[req.Worker]
		if !ok || !w.alive {
			// Presumed dead (or never registered): the lease machinery
			// already re-queued its work; make it start over.
			return &mrpc.HeartbeatReply{Unknown: true}, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w.lastBeat = time.Now()
		rep := &mrpc.HeartbeatReply{Kill: w.kill}
		w.kill = nil
		for _, p := range report {
			if att, ok := w.attempts[p.ID]; ok {
				att.progress = p.Fraction
			} else {
				// The worker is running something the master no longer
				// tracks (superseded while a kill was in flight).
				rep.Kill = append(rep.Kill, p.ID)
			}
		}
		report = nil
		for n := min(req.Free, w.slots-len(w.attempts)); n > 0; n-- {
			a, ok := m.assignLocked(w)
			if !ok {
				break
			}
			rep.Assign = append(rep.Assign, a)
		}
		if req.Free == 0 || len(rep.Assign) > 0 || len(rep.Kill) > 0 || expired {
			return rep, nil
		}
		if timeout == nil {
			timer := time.NewTimer(m.cfg.Heartbeat)
			defer timer.Stop()
			timeout = timer.C
		}
		wake := m.wake
		m.parked++
		m.mu.Unlock()
		select {
		case <-wake:
		case <-timeout:
			expired = true
		case <-ctx.Done():
		}
		m.mu.Lock()
		m.parked--
	}
}

// wakeLocked answers the parked polls; each re-runs its assignment and
// parks again if it still has nothing. Everything that can make a task
// runnable or raise a kill order ends in it: Submit, Complete,
// a worker declared dead, a speculative backup queued, Close.
func (m *Master) wakeLocked() {
	if m.parked > 0 {
		close(m.wake)
		m.wake = make(chan struct{})
	}
}

var errMasterClosed = errors.New("mapreduce: master closed")

// assignLocked picks one task for worker w: the runnable job with the
// smallest running-slots/weight ratio, then that job's best task
// (local pending maps first, then any pending map, then reduces once
// all maps committed, then speculative backups).
func (m *Master) assignLocked(w *mWorker) (mrpc.Assignment, bool) {
	others := false
	for _, o := range m.workers {
		if o.alive && o.id != w.id {
			others = true
			break
		}
	}
	tried := make(map[string]bool)
	for {
		var best *Job
		var bestRatio float64
		for _, j := range m.jobs {
			if tried[j.ID] || !j.hasWorkLocked() {
				continue
			}
			weight := m.weights[j.tenant]
			if weight <= 0 {
				weight = 1
			}
			ratio := float64(j.runningSlots) / float64(weight)
			if best == nil || ratio < bestRatio || (ratio == bestRatio && j.ID < best.ID) {
				best, bestRatio = j, ratio
			}
		}
		if best == nil {
			return mrpc.Assignment{}, false
		}
		if a, ok := best.takeLocked(w, others); ok {
			return a, true
		}
		// This job's available work should wait for a better-placed
		// worker; try the next job in fair-share order.
		tried[best.ID] = true
	}
}

func (j *Job) hasWorkLocked() bool {
	return len(j.pendingMaps) > 0 || len(j.pendingReds) > 0 || len(j.specQ) > 0
}

// phaseSpreadWindow is how many heartbeat intervals a reduce
// assignment defers to spread a job's phase across workers (the
// bounded-delay idiom from map locality scheduling, measured in time
// so a burst of free-slot probes from one worker cannot burn the
// window before anyone else beats): a worker already running one of
// this job's reduces yields the next reduce for this long so that
// one slow machine cannot quietly absorb the whole phase — with both
// reduces of a 2-reducer job on the straggler, no sibling ever
// commits and speculation has no median to project against.
const phaseSpreadWindow = 4

// takeLocked pops this job's best task for the worker and builds the
// assignment, registering the attempt on worker and task. It returns
// false when the only available work should wait for a better-placed
// worker: a reduce spread-yield, or a speculative backup that would
// land on the very worker running the original attempt.
func (j *Job) takeLocked(w *mWorker, others bool) (mrpc.Assignment, bool) {
	phase := mrpc.PhaseMap
	idx := -1
	spec := false
	local := false
	if len(j.pendingMaps) > 0 {
		pick := 0
		if j.cfg.Locality && w.node != "" {
			for qi, t := range j.pendingMaps {
				for _, loc := range j.splits[t].locations {
					if loc == w.node {
						pick, local = qi, true
						break
					}
				}
				if local {
					break
				}
			}
		}
		idx = j.pendingMaps[pick]
		j.pendingMaps = append(j.pendingMaps[:pick], j.pendingMaps[pick+1:]...)
		j.maps[idx].queued = false
	} else if len(j.pendingReds) > 0 && j.mapsDone == len(j.maps) {
		// The mapsDone gate matters after a lost-map resurrection: a
		// reduce assigned while a map is re-running would snapshot
		// mapOutputsLocked without that map's runs and silently merge
		// an incomplete input set.
		idx = j.pendingReds[0]
		if others && w.runs(j.ID, mrpc.PhaseReduce, -1) {
			t := &j.reduces[idx]
			now := time.Now()
			if t.deferUntil.IsZero() {
				t.deferUntil = now.Add(phaseSpreadWindow * j.master.cfg.Heartbeat)
			}
			if now.Before(t.deferUntil) {
				return mrpc.Assignment{}, false
			}
		}
		phase = mrpc.PhaseReduce
		j.pendingReds = j.pendingReds[1:]
		j.reduces[idx].queued = false
	} else if len(j.specQ) > 0 {
		key := j.specQ[0]
		if w.runs(key.Job, key.Phase, key.Task) {
			// A backup raced on the straggler itself is no backup.
			return mrpc.Assignment{}, false
		}
		if key.Phase == mrpc.PhaseReduce && j.mapsDone != len(j.maps) {
			return mrpc.Assignment{}, false // same gate as queued reduces
		}
		j.specQ = j.specQ[1:]
		phase, idx, spec = key.Phase, key.Task, true
	} else {
		// Pending reduces exist but are gated behind a map re-run.
		return mrpc.Assignment{}, false
	}
	t := j.task(phase, idx)
	att := &mAttempt{
		id:      mrpc.AttemptID{Job: j.ID, Phase: phase, Task: idx, Attempt: t.nextAttempt},
		worker:  w.id,
		started: time.Now(),
		spec:    spec,
	}
	t.nextAttempt++
	t.running[att.id.Attempt] = att
	w.attempts[att.id] = att
	j.runningSlots++
	if phase == mrpc.PhaseMap && !spec {
		if local {
			j.ctr.LocalTasks++
		} else {
			j.ctr.RemoteTasks++
		}
	}
	a := mrpc.Assignment{
		ID:      att.id,
		Spec:    j.spec,
		ShufDir: j.shuf,
		MapOnly: j.cfg.MapOnly,
	}
	out := trimDir(j.cfg.OutputDir)
	if phase == mrpc.PhaseMap {
		a.Split = j.splits[idx].ref()
		if j.cfg.MapOnly {
			a.OutFile = fmt.Sprintf("%s/part-m-%05d.a%d", out, idx, att.id.Attempt)
		}
	} else {
		a.OutFile = fmt.Sprintf("%s/part-%05d.a%d", out, idx, att.id.Attempt)
		a.MapOutputs = j.mapOutputsLocked()
	}
	return a, true
}

// mapOutputsLocked snapshots every committed map task's runs, stamped
// with the shuffle address of the worker that wrote them when that
// worker is still alive — dead owners leave Addr empty and reducers
// go straight to the DFS spill files.
func (j *Job) mapOutputsLocked() []mrpc.MapOutputRef {
	out := make([]mrpc.MapOutputRef, 0, len(j.maps))
	for t := range j.maps {
		mt := &j.maps[t]
		if len(mt.runs) == 0 {
			continue
		}
		runs := make([]mrpc.RunRef, len(mt.runs))
		copy(runs, mt.runs)
		addr := ""
		if w, ok := j.master.workers[mt.runWorker]; ok && w.alive {
			addr = w.addr
		}
		for i := range runs {
			runs[i].Addr = addr
		}
		out = append(out, mrpc.MapOutputRef{Task: t, Runs: runs})
	}
	return out
}

// task returns the named task, nil when the job has none such — IDs
// arrive off the wire.
func (j *Job) task(phase string, idx int) *mTask {
	tasks := j.maps
	switch phase {
	case mrpc.PhaseMap:
	case mrpc.PhaseReduce:
		tasks = j.reduces
	default:
		return nil
	}
	if idx < 0 || idx >= len(tasks) {
		return nil
	}
	return &tasks[idx]
}

// Complete implements mrpc.Control.
func (m *Master) Complete(_ context.Context, req *mrpc.CompleteRequest) (*mrpc.CompleteReply, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errMasterClosed
	}
	// Commit and enqueue reduces, kill siblings, re-queue, settle, or
	// only free this worker to take a reduce it had yielded: whatever
	// happens below, someone may have work or orders now.
	defer m.wakeLocked()
	j, ok := m.jobs[req.ID.Job]
	if !ok { // never existed, or settled and dropped
		return &mrpc.CompleteReply{}, nil
	}
	t := j.task(req.ID.Phase, req.ID.Task)
	if t == nil {
		return nil, &mrpc.Error{Code: mrpc.CodeBadRequest, Msg: fmt.Sprintf("%v names no task of its job", req.ID)}
	}
	att, tracked := t.running[req.ID.Attempt]
	if tracked {
		delete(t.running, req.ID.Attempt)
		j.runningSlots--
		if w, ok := m.workers[att.worker]; ok {
			delete(w.attempts, req.ID)
		}
	}
	if !tracked || t.committed {
		// Superseded or orphaned: the worker must discard the attempt's
		// files.
		return &mrpc.CompleteReply{}, nil
	}
	if req.Err != "" {
		j.handleLostMaps(req.LostMaps)
		cause := req.Cause
		if cause == nil {
			cause = errors.New(req.Err)
		}
		j.attemptFailed(req.ID, t, cause)
		return &mrpc.CompleteReply{}, nil
	}
	// First finisher wins. Reduce and map-only output commits by
	// rename, so the name "part-NNNNN" only ever points at one
	// attempt's complete bytes.
	if req.OutFile != "" {
		final := strings.TrimSuffix(req.OutFile, fmt.Sprintf(".a%d", req.ID.Attempt))
		if err := m.store.Rename(req.OutFile, final); err != nil {
			j.attemptFailed(req.ID, t, fmt.Errorf("commit %s: %w", req.OutFile, err))
			return &mrpc.CompleteReply{}, nil
		}
		t.outFile = final
	}
	t.committed = true
	t.runs = req.Runs
	t.runWorker = req.Worker
	j.foldCounters(req.Counters)
	// Committed attempts contribute their spans to the job's trace;
	// superseded and failed ones don't, keeping one span per task.
	m.cfg.Tracer.Attach(j.spec.Trace, req.Spans)
	if att.spec {
		j.ctr.SpecWon++
	}
	// Losing sibling attempts get kill orders.
	j.killRunningLocked(t)
	if req.ID.Phase == mrpc.PhaseMap {
		j.mapsDone++
		j.mapDur = append(j.mapDur, time.Since(att.started))
		if j.mapsDone == len(j.maps) {
			if j.cfg.MapOnly {
				j.finalize()
			} else {
				j.enqueueReduces()
			}
		}
	} else {
		j.redsDone++
		j.redDur = append(j.redDur, time.Since(att.started))
		if j.redsDone == len(j.reduces) {
			j.finalize()
		}
	}
	return &mrpc.CompleteReply{Accepted: true}, nil
}

// attemptFailed charges one failed attempt to its task's error budget
// (Config.MaxAttempts; a worker's death re-queues without touching it):
// the task is re-queued, or the budget is spent and the job fails.
func (j *Job) attemptFailed(id mrpc.AttemptID, t *mTask, cause error) {
	t.failures++
	if t.failures >= j.cfg.MaxAttempts {
		j.fail(fmt.Errorf("mapreduce: %s task %d failed after %d attempts: %w", id.Phase, id.Task, t.failures, cause))
		return
	}
	j.ctr.Retries++
	j.requeue(id.Phase, id.Task)
}

// handleLostMaps resurrects committed map tasks whose spill runs a
// reduce attempt could fetch neither from their worker nor from the
// DFS. Only verifiably-gone output re-runs: if the spill files still
// stat, the fetch failure was transient and the map's work stands.
func (j *Job) handleLostMaps(lost []int) {
	for _, t := range lost {
		if t < 0 || t >= len(j.maps) {
			continue
		}
		mt := &j.maps[t]
		if !mt.committed {
			continue
		}
		gone := false
		for _, run := range mt.runs {
			if _, err := j.master.store.Stat(run.File); err != nil {
				gone = true
				break
			}
		}
		if !gone {
			continue
		}
		mt.committed = false
		mt.runs = nil
		j.mapsDone--
		j.ctr.Retries++
		j.requeue(mrpc.PhaseMap, t)
	}
}

// requeue puts a task back on its pending queue (no-op if queued or
// already running elsewhere — a surviving sibling may still commit).
func (j *Job) requeue(phase string, idx int) {
	t := j.task(phase, idx)
	if t.committed || t.queued || len(t.running) > 0 {
		return
	}
	t.queued = true
	if phase == mrpc.PhaseMap {
		j.pendingMaps = append(j.pendingMaps, idx)
	} else {
		j.pendingReds = append(j.pendingReds, idx)
	}
}

// enqueueReduces schedules every uncommitted reduce once all maps are
// committed (again, after lost-map recovery).
func (j *Job) enqueueReduces() {
	for i := range j.reduces {
		t := &j.reduces[i]
		if !t.committed && !t.queued && len(t.running) == 0 {
			t.queued = true
			j.pendingReds = append(j.pendingReds, i)
		}
	}
}

func (j *Job) foldCounters(c mrpc.TaskCounters) {
	j.ctr.InputRecords += c.InputRecords
	j.ctr.MapOutputRecords += c.MapOutputRecords
	j.ctr.CombineInput += c.CombineInput
	j.ctr.CombineOutput += c.CombineOutput
	j.ctr.ReduceGroups += c.ReduceGroups
	j.ctr.OutputRecords += c.OutputRecords
	j.ctr.ShuffleBytes += c.ShuffleBytes
	j.ctr.RemoteShuffleBytes += c.RemoteShuffle
	j.ctr.SpillRuns += c.SpillRuns
	j.ctr.SpillBytes += c.SpillBytes
	j.ctr.MergeStreams += c.MergeStreams
}

// fail settles the job as failed. Callers hold m.mu.
func (j *Job) fail(err error) {
	j.failed = err
	j.settle()
}

// finalize settles the job as succeeded: output files in task order,
// committed spill runs deleted. Callers hold m.mu.
func (j *Job) finalize() {
	tasks := j.reduces
	if j.cfg.MapOnly {
		tasks = j.maps
	}
	j.outputs = j.outputs[:0]
	for i := range tasks {
		if tasks[i].outFile != "" {
			j.outputs = append(j.outputs, tasks[i].outFile)
		}
	}
	j.settle()
}

// settle kills stragglers, cleans committed shuffle state, closes
// doneCh and drops the job from the master, whose lifetime totals keep
// its counters; Wait reads the result from the *Job. Running attempts
// clean their own spills when the kill lands; their completes arrive
// after settle, find no such job and are rejected.
func (j *Job) settle() {
	j.dur = time.Since(j.start)
	if j.span != nil {
		if j.failed != nil {
			j.span.Annotate("failed: %v", j.failed)
		}
		j.span.End()
	}
	for ti := range j.maps {
		t := &j.maps[ti]
		j.killRunningLocked(t)
		for _, run := range t.runs {
			_ = j.master.store.Delete(run.File)
		}
		t.runs = nil
	}
	for ti := range j.reduces {
		j.killRunningLocked(&j.reduces[ti])
	}
	close(j.doneCh)
	j.master.settled.addCounters(j.ctr)
	delete(j.master.jobs, j.ID)
}

// killRunningLocked strikes a task's running attempts and raises their
// kill orders, which ride the workers' next heartbeat replies.
func (j *Job) killRunningLocked(t *mTask) {
	for _, att := range t.running {
		if w, ok := j.master.workers[att.worker]; ok {
			w.kill = append(w.kill, att.id)
			delete(w.attempts, att.id)
		}
		j.runningSlots--
	}
	clear(t.running)
}

// ---- monitor: liveness + speculation ----

func (m *Master) monitor() {
	defer m.monWG.Done()
	ticker := time.NewTicker(m.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopMon:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		now := time.Now()
		for _, w := range m.workers {
			if w.alive && now.Sub(w.lastBeat) > m.cfg.Lease {
				m.declareDeadLocked(w)
			}
		}
		for _, j := range m.jobs {
			j.speculateLocked(now)
		}
		m.mu.Unlock()
	}
}

// declareDeadLocked expires a worker's lease: its in-flight attempts
// are struck and their tasks re-queued. Its committed map runs stay
// — the spill files live on the DFS — but reducers stop being
// pointed at its shuffle server.
func (m *Master) declareDeadLocked(w *mWorker) {
	w.alive = false
	m.wakeLocked() // reduces yielded to it are the survivors' now
	for id := range w.attempts {
		j, ok := m.jobs[id.Job]
		if !ok {
			continue
		}
		t := j.task(id.Phase, id.Task)
		delete(t.running, id.Attempt)
		j.runningSlots--
		if !t.committed {
			j.ctr.Retries++
			j.requeue(id.Phase, id.Task)
		}
	}
	w.attempts = make(map[mrpc.AttemptID]*mAttempt)
}

// speculateLocked launches bounded backup attempts for stragglers:
// when a phase has no fresh work pending and a task's single attempt
// is projected (by reported progress rate, or elapsed time when
// progress is unknown) to run well past the median committed
// duration, a duplicate is queued. First finisher wins.
func (j *Job) speculateLocked(now time.Time) {
	if !j.cfg.Speculative || j.specLaunched >= j.specCap {
		return
	}
	if len(j.pendingMaps) > 0 || len(j.pendingReds) > 0 || len(j.specQ) > 0 {
		return
	}
	phase, tasks, durs := mrpc.PhaseMap, j.maps, j.mapDur
	if j.mapsDone == len(j.maps) {
		if j.cfg.MapOnly {
			return
		}
		phase, tasks, durs = mrpc.PhaseReduce, j.reduces, j.redDur
	}
	if 2*len(durs) < len(tasks) {
		// A phase's tasks start together, so the first finisher is no
		// median: its healthy siblings on a loaded box take 2-3x as
		// long and would burn the backup budget. Wait for half.
		return
	}
	med := medianDuration(durs)
	threshold := time.Duration(float64(med) * j.cfg.StragglerFactor)
	for i := range tasks {
		t := &tasks[i]
		if t.committed || t.specStarted || len(t.running) != 1 {
			continue
		}
		var att *mAttempt
		for _, a := range t.running {
			att = a
		}
		elapsed := now.Sub(att.started)
		slow := elapsed > threshold
		if !slow && att.progress > 0.01 && elapsed > med/2 {
			// Progress-rate projection: a task crawling at 10% speed
			// is flagged long before its elapsed time alone would be.
			slow = time.Duration(float64(elapsed)/att.progress) > threshold
		}
		if !slow {
			continue
		}
		t.specStarted = true
		j.specQ = append(j.specQ, mrpc.TaskKey{Job: j.ID, Phase: phase, Task: i})
		j.master.wakeLocked()
		j.specLaunched++
		j.ctr.SpecLaunched++
		if j.specLaunched >= j.specCap {
			return
		}
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	cp := slices.Clone(ds)
	slices.Sort(cp)
	return cp[len(cp)/2]
}

// ---- DFS proxy: storage access for out-of-process workers ----

func (m *Master) mountProxy(mux *http.ServeMux) {
	c := m.cfg.Cluster
	mrpc.Handle(mux, mrpc.PathProxyStat, func(_ context.Context, req *struct {
		Name string `json:"name"`
	}) (*mrpc.StatReply, error) {
		info, err := c.Stat(req.Name)
		if err != nil {
			return nil, proxyErr(err)
		}
		return &mrpc.StatReply{Size: int64(info.Size), Complete: info.Complete}, nil
	})
	mrpc.Handle(mux, mrpc.PathProxyDelete, func(_ context.Context, req *struct {
		Name string `json:"name"`
	}) (*struct{}, error) {
		if err := c.Delete(req.Name); err != nil {
			return nil, proxyErr(err)
		}
		return &struct{}{}, nil
	})
	mrpc.Handle(mux, mrpc.PathProxyRename, func(_ context.Context, req *struct {
		Old string `json:"old"`
		New string `json:"new"`
	}) (*struct{}, error) {
		if err := c.Rename(req.Old, req.New); err != nil {
			return nil, proxyErr(err)
		}
		return &struct{}{}, nil
	})
	mux.HandleFunc("GET "+mrpc.PathProxyRead, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
		length, _ := strconv.ParseInt(q.Get("len"), 10, 64)
		f, err := c.Open(q.Get("name"), q.Get("hint"))
		if err != nil {
			writeProxyErr(w, err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Length", strconv.FormatInt(length, 10))
		_, _ = io.Copy(w, io.NewSectionReader(f, off, length))
	})
	mux.HandleFunc("PUT "+mrpc.PathProxyCreate, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		fw, err := c.Create(q.Get("name"), q.Get("hint"))
		if err != nil {
			writeProxyErr(w, err)
			return
		}
		if _, err := io.Copy(fw, r.Body); err != nil {
			_ = fw.Close()
			_ = c.Delete(q.Get("name"))
			writeProxyErr(w, err)
			return
		}
		if err := fw.Close(); err != nil {
			_ = c.Delete(q.Get("name"))
			writeProxyErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

func proxyErr(err error) error {
	if errors.Is(err, dfs.ErrNotFound) {
		return fmt.Errorf("%w: %v", mrpc.ErrNotFound, err)
	}
	return err
}

func writeProxyErr(w http.ResponseWriter, err error) {
	if errors.Is(err, dfs.ErrNotFound) {
		mrpc.WriteError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	mrpc.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
}
