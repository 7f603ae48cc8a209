package mapreduce

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
)

// ErrNoNodes is returned when the cluster has no live datanodes.
var ErrNoNodes = errors.New("mapreduce: cluster has no live datanodes")

// kv is one intermediate pair. Pairs preserve emission order within a
// map task, which (together with task-index-ordered merging) makes
// reduce input deterministic regardless of scheduling.
type kv struct {
	key string
	val []byte
}

// byteArena copies emitted values into chunked backing arrays so the
// map hot loop does one allocation per ~64 KiB of output instead of
// one per record. Arenas are per-attempt and never shared across
// goroutines.
type byteArena struct {
	chunk []byte
}

const arenaChunkSize = 64 * 1024

// alloc returns an n-byte slice carved from the current chunk. A
// chunk is only ever appended to, never rewritten, so every returned
// slice stays valid for as long as its holder keeps it; dropped
// chunks go to the GC wholesale.
func (a *byteArena) alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > arenaChunkSize/4 {
		// Large values get their own allocation rather than wasting
		// the tail of a chunk.
		return make([]byte, n)
	}
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]byte, 0, arenaChunkSize)
	}
	start := len(a.chunk)
	a.chunk = a.chunk[:start+n]
	return a.chunk[start : start+n : start+n]
}

func (a *byteArena) copy(v []byte) []byte {
	buf := a.alloc(len(v))
	copy(buf, v)
	return buf
}

// attempt is one scheduled execution of a map task.
type attempt struct {
	task        int
	speculative bool
}

type taskState struct {
	committed   bool
	launched    int // attempts started
	running     int
	start       time.Time // most recent attempt start
	specStarted bool
}

type engine struct {
	cluster *dfs.Cluster
	cfg     Config
	splits  []split
	nodes   []string
	ctr     *Counters
	rt      *taskRuntime // shared task-execution machinery

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []attempt
	tasks     []taskState
	mapOut    []*taskOutput // committed per-task intermediate output
	done      int
	failed    error
	durations []time.Duration
}

// Run executes a job to completion.
func Run(cluster *dfs.Cluster, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Mapper == nil {
		return nil, errors.New("mapreduce: job needs a Mapper")
	}
	if cfg.Reducer != nil && cfg.StreamReducer != nil {
		return nil, errors.New("mapreduce: set either Reducer or StreamReducer, not both")
	}
	nodes := cluster.DataNodes()
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	splits, err := buildSplits(cluster, cfg.Inputs)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e := &engine{
		cluster: cluster,
		cfg:     cfg,
		splits:  splits,
		nodes:   nodes,
		ctr:     &Counters{},
		tasks:   make([]taskState, len(splits)),
		mapOut:  make([]*taskOutput, len(splits)),
	}
	e.rt = &taskRuntime{
		store:    NewDFSStore(cluster),
		cfg:      cfg,
		ctr:      e.ctr,
		shufDir:  fmt.Sprintf("%s/_shuffle-%d", trimDir(cfg.OutputDir), shuffleEpoch.Add(1)),
		spillSeq: new(atomic.Int64),
	}
	e.cond = sync.NewCond(&e.mu)
	for i := range splits {
		e.pending = append(e.pending, attempt{task: i})
	}
	e.ctr.add(&e.ctr.MapTasks, int64(len(splits)))
	defer e.cleanupShuffle()

	if err := e.runMapPhase(); err != nil {
		return nil, err
	}
	var outputs []string
	if cfg.MapOnly {
		outputs, err = e.runMapOnly()
	} else {
		outputs, err = e.runReducePhase()
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Counters:    e.ctr.snapshot(),
		Duration:    time.Since(start),
		OutputFiles: outputs,
	}, nil
}

// runMapPhase drives worker goroutines (SlotsPerNode per node) plus
// the speculation monitor until every task commits or one fails. The
// phase ends as soon as all tasks have committed — it does NOT wait
// for still-running losing attempts (Hadoop kills those; here they
// wake later, find their task committed, and are discarded).
func (e *engine) runMapPhase() error {
	if len(e.splits) == 0 {
		return nil
	}
	for _, node := range e.nodes {
		for s := 0; s < e.cfg.SlotsPerNode; s++ {
			go e.workerLoop(node)
		}
	}
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	if e.cfg.Speculative {
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			e.speculationMonitor(stopMon)
		}()
	}
	e.mu.Lock()
	for e.done < len(e.splits) && e.failed == nil {
		e.cond.Wait()
	}
	err := e.failed
	e.mu.Unlock()
	close(stopMon)
	monWG.Wait()
	return err
}

// maxLocalitySkips bounds delay scheduling: a worker with no local
// pending attempt yields this many times — letting a replica holder's
// worker grab the task — before settling for a remote one (Zaharia et
// al.'s delay scheduling, which 2011-era Hadoop used to keep map
// tasks data-local). The bound guarantees progress: after the skips a
// worker always takes FIFO.
const maxLocalitySkips = 3

func (e *engine) workerLoop(node string) {
	skips := 0
	for {
		e.mu.Lock()
		for len(e.pending) == 0 && e.done < len(e.splits) && e.failed == nil {
			e.cond.Wait()
		}
		if e.failed != nil || e.done >= len(e.splits) {
			e.mu.Unlock()
			return
		}
		att, ok := e.takeLocked(node, skips)
		e.mu.Unlock()
		if !ok {
			skips++
			runtime.Gosched() // let a local worker in; bounded by maxLocalitySkips
			continue
		}
		skips = 0
		e.runAttempt(node, att)
	}
}

// takeLocked pops the best pending attempt for node: with locality
// enabled, the first attempt whose split has a replica on node wins;
// with none and skip budget left it declines (delay scheduling);
// otherwise FIFO. Speculative duplicates of already-committed tasks
// are purged first, so a decline always means "yielding to a local
// worker" and never burns the caller's skip budget on dead entries.
// Callers hold e.mu.
func (e *engine) takeLocked(node string, skips int) (attempt, bool) {
	keep := e.pending[:0]
	for _, att := range e.pending {
		if !e.tasks[att.task].committed {
			keep = append(keep, att)
		}
	}
	e.pending = keep
	if len(e.pending) == 0 {
		return attempt{}, false
	}
	idx := -1
	if e.cfg.Locality {
		for i, att := range e.pending {
			for _, loc := range e.splits[att.task].locations {
				if loc == node {
					idx = i
					break
				}
			}
			if idx >= 0 {
				break
			}
		}
		if idx < 0 && skips < maxLocalitySkips {
			return attempt{}, false
		}
	}
	local := idx >= 0
	if idx < 0 {
		idx = 0
	}
	att := e.pending[idx]
	e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
	st := &e.tasks[att.task]
	st.launched++
	st.running++
	st.start = time.Now()
	if !att.speculative {
		if local {
			e.ctr.add(&e.ctr.LocalTasks, 1)
		} else {
			e.ctr.add(&e.ctr.RemoteTasks, 1)
		}
	}
	return att, true
}

// runAttempt executes one map attempt and commits its output if it is
// the first completion for the task. Attempts that lose (a sibling
// committed first) or fail delete any spill files they wrote.
func (e *engine) runAttempt(node string, att attempt) {
	if e.cfg.TaskDelay != nil {
		if d := e.cfg.TaskDelay(node, att.task); d > 0 {
			time.Sleep(d)
		}
	}
	started := time.Now()
	out, records, outRecords, err := e.rt.executeMap(node, att.task, e.splits[att.task])

	e.mu.Lock()
	st := &e.tasks[att.task]
	st.running--
	if err != nil {
		if st.committed {
			e.mu.Unlock()
			return // a sibling attempt already succeeded
		}
		if st.launched < e.cfg.MaxAttempts {
			e.ctr.add(&e.ctr.Retries, 1)
			e.pending = append(e.pending, attempt{task: att.task})
		} else if e.failed == nil {
			e.failed = fmt.Errorf("mapreduce: task %d failed after %d attempts: %w",
				att.task, st.launched, err)
		}
		e.cond.Broadcast()
		e.mu.Unlock()
		return
	}
	if st.committed {
		e.mu.Unlock()
		e.rt.discardOutput(out) // lost the race; drop its spills
		return
	}
	if e.failed != nil {
		// The job already failed (another task exhausted its attempts);
		// Run may have returned and cleaned up, so committing now would
		// leak this attempt's spill files past cleanupShuffle.
		e.mu.Unlock()
		e.rt.discardOutput(out)
		return
	}
	st.committed = true
	e.mapOut[att.task] = out
	e.done++
	e.durations = append(e.durations, time.Since(started))
	e.ctr.add(&e.ctr.InputRecords, records)
	e.ctr.add(&e.ctr.MapOutputRecords, outRecords)
	if att.speculative {
		e.ctr.add(&e.ctr.SpecWon, 1)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// speculationMonitor launches duplicates for tasks running much longer
// than the median completed task once no fresh work is pending —
// Hadoop's classic straggler mitigation.
func (e *engine) speculationMonitor(stop <-chan struct{}) {
	ticker := time.NewTicker(e.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		e.mu.Lock()
		if e.done >= len(e.splits) || e.failed != nil {
			e.mu.Unlock()
			return
		}
		if len(e.pending) > 0 || len(e.durations) == 0 {
			e.mu.Unlock()
			continue
		}
		med := medianDuration(e.durations)
		threshold := time.Duration(float64(med) * e.cfg.StragglerFactor)
		launched := false
		for t := range e.tasks {
			st := &e.tasks[t]
			if st.committed || st.running == 0 || st.specStarted {
				continue
			}
			if time.Since(st.start) > threshold {
				st.specStarted = true
				e.pending = append(e.pending, attempt{task: t, speculative: true})
				e.ctr.add(&e.ctr.SpecLaunched, 1)
				launched = true
			}
		}
		if launched {
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	cp := slices.Clone(ds)
	slices.Sort(cp)
	return cp[len(cp)/2]
}
