package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mrpc"
	"repro/internal/obs"
)

// Worker is the task runtime: it registers with a master, heartbeats
// for leases and assignments, executes map and reduce attempts through
// a per-attempt taskRuntime, and — when it was started with a dialable
// master — serves its spill files' segments to reducers over HTTP. One
// worker maps onto one TaskTracker of the paper's Hadoop deployment;
// Run starts one per datanode inside the caller's process, holding the
// master directly and leaving reducers to read spill files from the
// store.
//
// It beats on a ticker for liveness and progress, and at once (kick)
// whenever it has a slot to offer: when an attempt ends, and when a
// reply left slots free. The master parks a beat it cannot serve, so a
// worker with a free slot always has one waiting there.
type Worker struct {
	cfg    WorkerConfig
	ctl    mrpc.Control
	store  Store
	srv    *mrpc.Server // shuffle segment server; nil on the direct transport
	beat   time.Duration
	reg    *obs.Registry
	mTasks *obs.CounterVec // lsdf_mr_worker_tasks_total{phase}
	mSegs  *obs.Counter    // segments served
	mHB    *obs.Counter    // heartbeats sent
	mHBErr *obs.Counter    // heartbeats failed
	mDur   *obs.HistogramVec

	// ctx is the worker's lifecycle: cancelled by Close/Kill (under
	// mu), it ends the heartbeat loop, admits no further attempt and
	// aborts every in-flight RPC so a hung master can't wedge shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	running map[mrpc.AttemptID]*wAttempt

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
	killed   chan struct{} // closed by kill
}

// kill cancels the attempt: its record loop and injected delays see
// it. Callers hold w.mu, so a second kill finds the first.
func (a *wAttempt) kill() {
	if !a.cancelled() {
		close(a.killed)
	}
}

func (a *wAttempt) cancelled() bool {
	select {
	case <-a.killed:
		return true
	default:
		return false
	}
}

// sleep waits d out; false means the attempt was killed first.
func (a *wAttempt) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-a.killed:
		return false
	}
}

// StartWorker registers with the master at cfg.Master and starts the
// heartbeat loop and shuffle server.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	return startWorker(cfg, mrpc.NewClient(cfg.Master), true)
}

// startWorker starts a worker on either transport. Without a shuffle
// server it registers no address, and reducers take its runs from the
// store.
func startWorker(cfg WorkerConfig, ctl mrpc.Control, shuffle bool) (*Worker, error) {
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
		ctl:     ctl,
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
		kick:    make(chan struct{}, 1),
	}
	if w.store == nil {
		w.store = NewProxyStore(ctx, cfg.Master)
	}
	if shuffle {
		mux := http.NewServeMux()
		mux.HandleFunc("GET "+mrpc.PathSegment, w.serveSegment)
		srv, err := mrpc.Serve("", mux)
		if err != nil {
			return nil, err
		}
		w.srv = srv
	}
	if err := w.register(); err != nil {
		w.closeShuffle()
		return nil, err
	}
	w.beatNow() // every slot is free: offer them before the first tick
	w.hbWG.Add(1)
	go w.heartbeatLoop()
	return w, nil
}

func (w *Worker) register() error {
	rep, err := w.ctl.Register(w.ctx, &mrpc.RegisterRequest{
		Worker: w.cfg.ID,
		Addr:   w.Addr(),
		Node:   w.cfg.Node,
		Slots:  w.cfg.Slots,
	})
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
	if w.halt() {
		w.hbWG.Wait()
		w.atWG.Wait()
		w.closeShuffle()
	}
}

// Kill simulates abrupt worker death for failure experiments: the
// heartbeat stops mid-lease, the shuffle server drops, and in-flight
// attempts abort without reporting — what a crashed process leaves
// behind, as far as the master can tell.
func (w *Worker) Kill() {
	if w.halt() {
		w.closeShuffle()
		w.hbWG.Wait()
	}
}

// halt ends the worker's lifecycle: it cancels the attempts and aborts
// every in-flight RPC (the attempts report nothing any more, so that
// only unwedges them). It reports false when that was done already.
func (w *Worker) halt() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ctx.Err() != nil {
		return false
	}
	for _, att := range w.running {
		att.kill()
	}
	w.cancel()
	return true
}

func (w *Worker) closeShuffle() {
	if w.srv != nil {
		w.srv.Close()
	}
}

// Addr returns the worker's shuffle server address, "" without one.
func (w *Worker) Addr() string {
	if w.srv == nil {
		return ""
	}
	return w.srv.Addr()
}

// Obs returns the worker's metrics registry, for mounting on a debug
// listener (lsdf-worker -debug-addr).
func (w *Worker) Obs() *obs.Registry { return w.reg }

func (w *Worker) heartbeatLoop() {
	defer w.hbWG.Done()
	ticker := time.NewTicker(w.beat)
	defer ticker.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-ticker.C:
		case <-w.kick:
		}
		w.mu.Lock()
		req := &mrpc.HeartbeatRequest{
			Worker: w.cfg.ID,
			Free:   w.cfg.Slots - len(w.running),
		}
		for id, att := range w.running {
			if att.cancelled() {
				continue // killed and winding down: holds its slot, reports nothing
			}
			req.Running = append(req.Running, mrpc.Progress{
				ID:       id,
				Fraction: math.Float64frombits(att.progress.Load()),
			})
		}
		w.mu.Unlock()

		// One heartbeat is bounded by generous multiples of the cadence:
		// transient stalls ride through, but never unbounded.
		hctx, hcancel := context.WithTimeout(w.ctx, max(4*w.beat, time.Second))
		rep, err := w.ctl.Heartbeat(hctx, req)
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
				att.kill()
			}
			w.mu.Unlock()
			_ = w.register()
			continue
		}
		w.mu.Lock()
		for _, id := range rep.Kill {
			if att, ok := w.running[id]; ok {
				att.kill()
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
	att := &wAttempt{id: a.ID, killed: make(chan struct{})}
	w.mu.Lock()
	if w.ctx.Err() != nil {
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
			ctr:       &req.Counters,
			shufDir:   a.ShufDir,
			spillTag:  fmt.Sprintf("%s-a%d-", w.cfg.ID, a.ID.Attempt),
			spillAll:  a.ID.Phase == mrpc.PhaseMap && !a.MapOnly,
			stepDelay: w.cfg.StepDelay,
			progress: func(frac float64) {
				att.progress.Store(math.Float64bits(frac))
			},
			cancelled: att.cancelled,
		}
		if a.ID.Phase == mrpc.PhaseMap {
			cleanup, err = w.runMap(a, rt, att, req)
		} else {
			cleanup, err = w.runReduce(a, rt, td, req)
		}
	}
	if errors.Is(err, errCancelled) {
		return // killed: files already cleaned, master stopped caring
	}
	if err != nil {
		req.Err, req.Cause = err.Error(), err
	}
	attSpan.End()
	w.mDur.With(a.ID.Phase).ObserveSince(start)
	w.mTasks.With(a.ID.Phase).Inc()
	req.Spans = td.TakeSpans()
	if w.ctx.Err() != nil {
		return
	}
	rep, cerr := w.ctl.Complete(w.ctx, req)
	if cerr != nil {
		if w.ctx.Err() != nil {
			// Shutdown cancelled the report mid-flight: the request may
			// have reached the master and committed these files, and we
			// never saw the verdict. Deleting them now could destroy
			// runs the master just registered — leave them; a crashed
			// process wouldn't have cleaned up either.
			return
		}
		rep = &mrpc.CompleteReply{} // unreachable master: assume superseded
	}
	if !rep.Accepted && cleanup != nil {
		cleanup()
	}
}

// runMap executes a map attempt. In the shuffle path every run is on
// the store (spillAll) and the completion carries the runs' segment
// geometry; in the map-only path the merged output lands in the
// attempt-scoped OutFile and the spills are dropped locally.
func (w *Worker) runMap(a mrpc.Assignment, rt *taskRuntime, att *wAttempt, req *mrpc.CompleteRequest) (func(), error) {
	if a.Split == nil {
		return nil, errors.New("mapreduce: map assignment without split")
	}
	if rt.cfg.TaskDelay != nil {
		if d := rt.cfg.TaskDelay(w.cfg.Node, a.ID.Task); d > 0 && !att.sleep(d) {
			return nil, errCancelled
		}
	}
	out, err := rt.executeMap(w.cfg.Node, a.ID.Task, fromRef(a.Split))
	if err != nil {
		return nil, err // executeMap discarded its spills
	}
	if a.MapOnly {
		err := rt.writeMapOutput(a.OutFile, w.cfg.Node, a.ID.Task, out)
		rt.discardOutput(out)
		if err != nil {
			return nil, err
		}
		req.OutFile = a.OutFile
		return func() { _ = w.store.Delete(a.OutFile) }, nil
	}
	req.Runs = out.spills
	return func() { rt.discardOutput(out) }, nil
}

// runReduce executes a reduce attempt: fetch every committed map
// task's segments for the partition (worker shuffle servers first,
// DFS spill files as fallback), k-way merge with (task, run)
// tie-breaks — the order no scheduling can change — and stream groups
// through the reducer into the attempt-scoped output file. Map tasks
// whose segments are unreachable on both paths become LostMaps.
func (w *Worker) runReduce(a mrpc.Assignment, rt *taskRuntime, td *obs.TraceData, req *mrpc.CompleteRequest) (func(), error) {
	p := a.ID.Task
	if rt.cfg.reduceHook != nil {
		if done := rt.cfg.reduceHook(p, a.ID.Attempt+1, w.cfg.Node); done != nil {
			defer done()
		}
	}
	var srcs []mergeSource
	defer func() { closeSources(srcs) }()
	var remoteBytes int64
	fetchSpan := obs.StartSpanOn(td, "mr.shuffle.fetch")
	for _, mo := range a.MapOutputs {
		var remote int64
		var err error
		if srcs, remote, err = openSources(w.ctx, w.store, mo.Runs, mo.Task, p, w.cfg.Node, srcs); err != nil {
			req.LostMaps = append(req.LostMaps, mo.Task)
		}
		remoteBytes += remote
	}
	fetchSpan.Annotate("%d sources, %d remote bytes", len(srcs), remoteBytes)
	fetchSpan.End()
	if len(req.LostMaps) > 0 {
		return nil, fmt.Errorf("mapreduce: reduce %d: %d map outputs unreachable", p, len(req.LostMaps))
	}
	rt.ctr.MergeStreams += int64(len(srcs))
	m, err := newMerger(srcs)
	if err != nil {
		return nil, err
	}
	out, err := rt.store.Create(a.OutFile, w.cfg.Node)
	if err != nil {
		return nil, err
	}
	lw := &lineWriter{w: out}
	if rt.cfg.reduceWriter != nil {
		lw.w = rt.cfg.reduceWriter(p, a.ID.Attempt+1, w.cfg.Node, out)
	}
	check := func() error {
		if rt.cancelled() {
			return errCancelled
		}
		return lw.fail()
	}
	groups, err := drainGroups(&Values{m: m}, rt.cfg.Reducer, lw.emit, check)
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
	req.Counters.ReduceGroups = groups
	req.Counters.OutputRecords = lw.n
	req.Counters.ShuffleBytes = m.bytes
	req.Counters.RemoteShuffle = remoteBytes
	return func() { _ = w.store.Delete(a.OutFile) }, nil
}

// serveSegment streams a byte range of a spill file this worker wrote
// — the network shuffle path. The file is read back through the
// worker's own store, so in-process and proxy deployments serve
// identically.
func (w *Worker) serveSegment(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
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
	serveRange(rw, q, f)
}

var copyBufs = sync.Pool{New: func() any { return new([spillReadBuf]byte) }}

// serveRange answers with the q["len"] bytes of f from q["off"] through
// a pooled buffer, hiding the ResponseWriter's ReadFrom: over TCP that
// ends in an io.Copy that allocates a buffer per call.
func serveRange(w http.ResponseWriter, q url.Values, f io.ReaderAt) {
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	n, _ := strconv.ParseInt(q.Get("len"), 10, 64)
	buf := copyBufs.Get().(*[spillReadBuf]byte)
	defer copyBufs.Put(buf)
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	_, _ = io.CopyBuffer(struct{ io.Writer }{w}, io.NewSectionReader(f, off, n), buf[:])
}
