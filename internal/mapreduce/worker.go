package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mrpc"
	"repro/internal/obs"
)

// Worker is the distributed task runtime: it registers with a master,
// heartbeats for leases and assignments, executes map and reduce
// attempts through a per-attempt taskRuntime, and serves its spill
// files' segments to reducers over HTTP. One worker maps onto one
// TaskTracker of the paper's Hadoop deployment.
//
// It beats on a ticker for liveness and progress, and at once (kick)
// whenever it has a slot to offer: when an attempt ends, and when a
// reply left slots free. The master parks a beat it cannot serve, so a
// worker with a free slot always has one waiting there.
type Worker struct {
	cfg    WorkerConfig
	client *mrpc.Client
	store  Store
	srv    *mrpc.Server // shuffle segment server
	beat   time.Duration
	reg    *obs.Registry
	mTasks *obs.CounterVec // lsdf_mr_worker_tasks_total{phase}
	mSegs  *obs.Counter    // segments served
	mHB    *obs.Counter    // heartbeats sent
	mHBErr *obs.Counter    // heartbeats failed
	mDur   *obs.HistogramVec

	// ctx is the worker's lifecycle: cancelled by Close/Kill, it
	// aborts every in-flight RPC so a hung master can't wedge
	// shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	running map[mrpc.AttemptID]*wAttempt
	dead    bool // Kill()ed: no more RPCs of any kind

	stop chan struct{}
	kick chan struct{}  // beat now; buffered, one pending kick is enough
	hbWG sync.WaitGroup // heartbeat loop
	atWG sync.WaitGroup // attempt goroutines
}

// WorkerConfig configures a worker.
type WorkerConfig struct {
	ID     string
	Master string // master base URL
	// Store is the worker's storage path; nil binds the master's DFS
	// proxy (the out-of-process deployment).
	Store    Store
	Node     string // datanode identity for locality hints ("" = none)
	Slots    int    // concurrent attempts; default 2
	Registry Registry
	// StepDelay injects a per-record delay into map attempts — the
	// straggler knob for speculation experiments.
	StepDelay time.Duration
	// Obs receives the worker's metrics (tasks run, segments served,
	// heartbeat health, task duration histograms); nil creates a
	// private registry, reachable via Worker.Obs for a debug listener.
	Obs *obs.Registry
}

// wAttempt is one running attempt's worker-side state.
type wAttempt struct {
	id       mrpc.AttemptID
	progress atomic.Uint64 // float64 bits
	cancel   atomic.Bool
}

// StartWorker registers with the master and starts the heartbeat loop
// and shuffle server.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("mapreduce: worker needs an ID")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.Registry == nil {
		cfg.Registry = Builtin()
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		cfg:     cfg,
		client:  mrpc.NewClient(cfg.Master),
		store:   cfg.Store,
		reg:     reg,
		mTasks:  reg.CounterVec("lsdf_mr_worker_tasks_total", "Task attempts finished by this worker.", "phase"),
		mSegs:   reg.Counter("lsdf_mr_worker_segments_total", "Shuffle segments served."),
		mHB:     reg.Counter("lsdf_mr_worker_heartbeats_total", "Heartbeats sent."),
		mHBErr:  reg.Counter("lsdf_mr_worker_heartbeat_errors_total", "Heartbeats that failed."),
		mDur:    reg.HistogramVec("lsdf_mr_worker_task_ns", "Task attempt duration.", "phase"),
		ctx:     ctx,
		cancel:  cancel,
		running: make(map[mrpc.AttemptID]*wAttempt),
		stop:    make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	if w.store == nil {
		w.store = NewProxyStore(ctx, cfg.Master)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+mrpc.PathSegment, w.serveSegment)
	srv, err := mrpc.Serve("", mux)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	if err := w.register(); err != nil {
		srv.Close()
		return nil, err
	}
	w.beatNow() // every slot is free: offer them before the first tick
	w.hbWG.Add(1)
	go w.heartbeatLoop()
	return w, nil
}

func (w *Worker) register() error {
	var rep mrpc.RegisterReply
	err := w.client.Call(w.ctx, mrpc.PathRegister, &mrpc.RegisterRequest{
		Worker: w.cfg.ID,
		Addr:   w.srv.Addr(),
		Node:   w.cfg.Node,
		Slots:  w.cfg.Slots,
	}, &rep)
	if err != nil {
		return fmt.Errorf("mapreduce: worker %s register: %w", w.cfg.ID, err)
	}
	w.beat = time.Duration(rep.HeartbeatMS) * time.Millisecond
	if w.beat <= 0 {
		w.beat = 10 * time.Millisecond
	}
	return nil
}

// Close shuts the worker down gracefully: running attempts are
// cancelled (they clean up their files and go unreported; the master
// re-queues them when the lease lapses or reassigns on re-register).
func (w *Worker) Close() {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	for _, att := range w.running {
		att.cancel.Store(true)
	}
	w.mu.Unlock()
	close(w.stop)
	// Cancel first: attempts are already marked cancelled and report
	// nothing, so aborting their in-flight RPCs only unwedges them.
	w.cancel()
	w.hbWG.Wait()
	w.atWG.Wait()
	w.srv.Close()
}

// Kill simulates abrupt worker death for failure experiments: the
// heartbeat stops mid-lease, the shuffle server drops, and in-flight
// attempts abort without completing or cleaning up — exactly what a
// crashed process leaves behind.
func (w *Worker) Kill() {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	for _, att := range w.running {
		att.cancel.Store(true)
	}
	w.mu.Unlock()
	close(w.stop)
	w.cancel()
	w.srv.Close()
	w.hbWG.Wait()
}

// hbTimeout bounds one heartbeat RPC: generous multiples of the
// cadence so transient stalls ride through, but never unbounded.
func (w *Worker) hbTimeout() time.Duration {
	d := 4 * w.beat
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Addr returns the worker's shuffle server address.
func (w *Worker) Addr() string { return w.srv.Addr() }

// Obs returns the worker's metrics registry, for mounting on a debug
// listener (lsdf-worker -debug-addr).
func (w *Worker) Obs() *obs.Registry { return w.reg }

func (w *Worker) heartbeatLoop() {
	defer w.hbWG.Done()
	ticker := time.NewTicker(w.beat)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		case <-w.kick:
		}
		w.mu.Lock()
		if w.dead {
			w.mu.Unlock()
			return
		}
		req := &mrpc.HeartbeatRequest{
			Worker: w.cfg.ID,
			Free:   w.cfg.Slots - len(w.running),
		}
		for id, att := range w.running {
			if att.cancel.Load() {
				continue // killed and winding down: holds its slot, reports nothing
			}
			req.Running = append(req.Running, mrpc.Progress{
				ID:       id,
				Fraction: math.Float64frombits(att.progress.Load()),
			})
		}
		w.mu.Unlock()

		hctx, hcancel := context.WithTimeout(w.ctx, w.hbTimeout())
		var rep mrpc.HeartbeatReply
		err := w.client.Call(hctx, mrpc.PathHeartbeat, req, &rep)
		hcancel()
		w.mHB.Inc()
		if err != nil {
			w.mHBErr.Inc()
			if w.ctx.Err() != nil {
				return // cancelled: shutting down
			}
			continue // master unreachable; keep trying until stopped
		}
		if rep.Unknown {
			// Declared dead. Orphan everything and start over; the
			// master has already re-queued our old work.
			w.mu.Lock()
			for _, att := range w.running {
				att.cancel.Store(true)
			}
			w.mu.Unlock()
			_ = w.register()
			continue
		}
		w.mu.Lock()
		for _, id := range rep.Kill {
			if att, ok := w.running[id]; ok {
				att.cancel.Store(true)
			}
		}
		w.mu.Unlock()
		for _, a := range rep.Assign {
			w.launch(a)
		}
		if len(rep.Assign) < req.Free {
			w.beatNow()
		}
	}
}

func (w *Worker) beatNow() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

func (w *Worker) launch(a mrpc.Assignment) {
	att := &wAttempt{id: a.ID}
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.running[a.ID] = att
	w.atWG.Add(1)
	w.mu.Unlock()
	go func() {
		defer w.atWG.Done()
		w.runAttempt(a, att)
		w.mu.Lock()
		delete(w.running, a.ID)
		w.mu.Unlock()
		w.beatNow()
	}()
}

// runAttempt executes one assignment end to end and reports the
// completion. Cancelled attempts clean up and report nothing (the
// master already struck them); rejected completions delete the
// attempt's files, keeping exactly one owner per committed byte.
func (w *Worker) runAttempt(a mrpc.Assignment, att *wAttempt) {
	// When the spec carries a trace ID, record this attempt's spans
	// into a detached trace; they ship home in the completion and the
	// master attaches them to the job's trace ring entry.
	var td *obs.TraceData
	if a.Spec.Trace != "" {
		td = &obs.TraceData{ID: a.Spec.Trace}
	}
	attSpan := obs.StartSpanOn(td, "mr."+a.ID.Phase)
	attSpan.Annotate("%s on %s", a.ID, w.cfg.ID)
	start := time.Now()
	cfg, err := w.cfg.Registry.Resolve(a.Spec)
	req := &mrpc.CompleteRequest{Worker: w.cfg.ID, ID: a.ID}
	var cleanup func()
	if err == nil {
		rt := &taskRuntime{
			store:     w.store,
			cfg:       cfg,
			ctr:       &Counters{},
			shufDir:   a.ShufDir,
			spillSeq:  new(atomic.Int64),
			spillTag:  fmt.Sprintf("%s-a%d-", w.cfg.ID, a.ID.Attempt),
			spillAll:  a.ID.Phase == mrpc.PhaseMap && !a.MapOnly,
			stepDelay: w.cfg.StepDelay,
			progress: func(frac float64) {
				att.progress.Store(math.Float64bits(frac))
			},
			cancelled: func() bool { return att.cancel.Load() },
		}
		if a.ID.Phase == mrpc.PhaseMap {
			cleanup, err = w.runMap(a, rt, req)
		} else {
			cleanup, err = w.runReduce(a, rt, td, req)
		}
	}
	if errors.Is(err, errCancelled) {
		return // killed: files already cleaned, master stopped caring
	}
	if err != nil {
		req.Err = err.Error()
	}
	attSpan.End()
	w.mDur.With(a.ID.Phase).ObserveSince(start)
	w.mTasks.With(a.ID.Phase).Inc()
	req.Spans = td.TakeSpans()
	w.mu.Lock()
	dead := w.dead
	w.mu.Unlock()
	if dead {
		return
	}
	var rep mrpc.CompleteReply
	if cerr := w.client.Call(w.ctx, mrpc.PathComplete, req, &rep); cerr != nil {
		if w.ctx.Err() != nil {
			// Shutdown cancelled the report mid-flight: the request may
			// have reached the master and committed these files, and we
			// never saw the verdict. Deleting them now could destroy
			// runs the master just registered — leave them; a crashed
			// process wouldn't have cleaned up either.
			return
		}
		rep.Accepted = false // unreachable master: assume superseded
	}
	if !rep.Accepted && cleanup != nil {
		cleanup()
	}
}

// runMap executes a map attempt. In the shuffle path every run is on
// the store (spillAll) and the completion carries the runs' segment
// geometry; in the map-only path the merged output lands in the
// attempt-scoped OutFile and the spills are dropped locally.
func (w *Worker) runMap(a mrpc.Assignment, rt *taskRuntime, req *mrpc.CompleteRequest) (func(), error) {
	if a.Split == nil {
		return nil, errors.New("mapreduce: map assignment without split")
	}
	out, records, outRecords, err := rt.executeMap(w.cfg.Node, a.ID.Task, fromRef(a.Split))
	if err != nil {
		return nil, err // executeMap discarded its spills
	}
	if a.MapOnly {
		if err := rt.writeMapOutput(a.OutFile, w.cfg.Node, a.ID.Task, out); err != nil {
			rt.discardOutput(out)
			return nil, err
		}
		rt.discardOutput(out)
		req.OutFile = a.OutFile
		req.Counters = taskCounters(rt.ctr, records, outRecords)
		return func() { _ = w.store.Delete(a.OutFile) }, nil
	}
	for _, run := range out.spills {
		ref := mrpc.RunRef{File: run.file, Segs: make([]mrpc.SegRef, len(run.segs))}
		for i, seg := range run.segs {
			ref.Segs[i] = mrpc.SegRef{Off: seg.off, Len: seg.length, Records: seg.records}
		}
		req.Runs = append(req.Runs, ref)
	}
	req.Counters = taskCounters(rt.ctr, records, outRecords)
	return func() { rt.discardOutput(out) }, nil
}

// runReduce executes a reduce attempt: fetch every committed map
// task's segments for the partition (worker shuffle servers first,
// DFS spill files as fallback), k-way merge with the same (task, run)
// tie-breaks as the single-process engine, and stream groups through
// the reducer into the attempt-scoped output file. Map tasks whose
// segments are unreachable on both paths become LostMaps.
func (w *Worker) runReduce(a mrpc.Assignment, rt *taskRuntime, td *obs.TraceData, req *mrpc.CompleteRequest) (func(), error) {
	p := a.ID.Task
	var srcs []mergeSource
	var remoteBytes int64
	fetchSpan := obs.StartSpanOn(td, "mr.shuffle.fetch")
	for _, mo := range a.MapOutputs {
		lost := false
		for ri, run := range mo.Runs {
			if p >= len(run.Segs) {
				continue
			}
			data, remote, err := fetchSegment(w.ctx, w.store, run, p, w.cfg.Node)
			if err != nil {
				lost = true
				break
			}
			if data == nil {
				continue // empty segment
			}
			if remote {
				remoteBytes += int64(len(data))
			}
			srcs = append(srcs, mergeSource{
				s:    newByteCursor(data, run.Segs[p].Records, run.File),
				task: mo.Task,
				run:  ri,
			})
		}
		if lost {
			req.LostMaps = append(req.LostMaps, mo.Task)
		}
	}
	fetchSpan.Annotate("%d sources, %d remote bytes", len(srcs), remoteBytes)
	fetchSpan.End()
	if len(req.LostMaps) > 0 {
		return nil, fmt.Errorf("mapreduce: reduce %d: %d map outputs unreachable", p, len(req.LostMaps))
	}
	rt.ctr.add(&rt.ctr.MergeStreams, int64(len(srcs)))
	m, err := newMerger(srcs)
	if err != nil {
		return nil, err
	}
	out, err := rt.store.Create(a.OutFile, w.cfg.Node)
	if err != nil {
		return nil, err
	}
	lw := &lineWriter{w: out}
	check := func() error {
		if att := rt.cancelled; att != nil && att() {
			return errCancelled
		}
		return lw.fail()
	}
	groups, err := drainGroups(m, rt.cfg.streamingReducer(), lw.emit, check)
	if err == nil {
		err = out.Close()
	}
	if err != nil {
		_ = out.Close()
		_ = rt.store.Delete(a.OutFile)
		if errors.Is(err, errCancelled) {
			return nil, err
		}
		return nil, fmt.Errorf("mapreduce: reduce partition %d: %w", p, err)
	}
	req.OutFile = a.OutFile
	req.Counters = taskCounters(rt.ctr, 0, 0)
	req.Counters.ReduceGroups = groups
	req.Counters.OutputRecords = lw.n
	req.Counters.ShuffleBytes = m.bytes
	req.Counters.RemoteShuffle = remoteBytes
	return func() { _ = w.store.Delete(a.OutFile) }, nil
}

// taskCounters snapshots an attempt's runtime counters as wire deltas.
func taskCounters(c *Counters, records, outRecords int64) mrpc.TaskCounters {
	s := c.snapshot()
	return mrpc.TaskCounters{
		InputRecords:     records,
		MapOutputRecords: outRecords,
		CombineInput:     s.CombineInput,
		CombineOutput:    s.CombineOutput,
		OutputRecords:    s.OutputRecords,
		SpillRuns:        s.SpillRuns,
		SpillBytes:       s.SpillBytes,
		MergeStreams:     s.MergeStreams,
	}
}

// serveSegment streams a byte range of a spill file this worker wrote
// — the network shuffle path. The file is read back through the
// worker's own store, so in-process and proxy deployments serve
// identically.
func (w *Worker) serveSegment(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	length, _ := strconv.ParseInt(q.Get("len"), 10, 64)
	f, err := w.store.Open(q.Get("file"), w.cfg.Node)
	if err != nil {
		code := http.StatusInternalServerError
		if IsNotFound(err) {
			code = http.StatusNotFound
		}
		mrpc.WriteError(rw, code, "segment", err.Error())
		return
	}
	defer f.Close()
	w.mSegs.Inc()
	rw.Header().Set("Content-Length", strconv.FormatInt(length, 10))
	_, _ = io.Copy(rw, io.NewSectionReader(f, off, length))
}
