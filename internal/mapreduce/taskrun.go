package mapreduce

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// stableSortByKey orders pairs by key, ties in emission order — the
// determinism the merge relies on. It sorts a permutation of indexes
// by (key, index), so an unstable O(n log n) pdqsort yields the stable
// order with no reflection and 4 B of scratch per record, and applies
// it in place: each record moves once.
func stableSortByKey(pairs []kv) {
	if slices.IsSortedFunc(pairs, func(a, b kv) int { return strings.Compare(a.key, b.key) }) {
		return // combiner output, single-key partitions
	}
	perm := make([]int32, len(pairs)) // a run is bounded by the shuffle budget, far below 2^31 records
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := strings.Compare(pairs[a].key, pairs[b].key); c != 0 {
			return c
		}
		return int(a - b)
	})
	for i := range perm { // follow each cycle once; visited slots become fixed points
		first, j := pairs[i], i
		for k := int(perm[j]); k != i; k = int(perm[j]) {
			pairs[j], perm[j] = pairs[k], int32(j)
			j = k
		}
		pairs[j], perm[j] = first, int32(j)
	}
}

// kv is one intermediate pair. Pairs preserve emission order within a
// map task, which (together with task-index-ordered merging) makes
// reduce input deterministic regardless of scheduling.
type kv struct {
	key string
	val []byte
}

// byteArena copies emitted values into chunked backing arrays so the
// map hot loop does one allocation per chunk of output — chunks double
// from 1 KiB to 64 KiB, so a small task makes little garbage — instead
// of one per record. Arenas are per-attempt and never shared across
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
		a.chunk = make([]byte, 0, min(arenaChunkSize, max(1024, 2*cap(a.chunk), 4*n)))
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

// taskRuntime is one attempt's execution machinery: running a mapper
// over a split with sort-spill under the shuffle budget, combining,
// writing and reading spill runs, and merging runs back out. A worker
// binds one per attempt against its Store (the DFS, or the master's
// proxy) with attempt-scoped spill names.
type taskRuntime struct {
	store    Store
	cfg      Config // defaults applied
	ctr      *Counters
	shufDir  string
	spillSeq int64
	spillBuf []byte
	spillTag string // attempt-scoping prefix in spill names

	// spillAll makes finish() write the final run to the store instead
	// of keeping it in memory — a shuffled map's output must be entirely
	// on the DFS so reducers elsewhere can fetch it (a map-only attempt
	// merges its own runs and keeps the last one). Run contents and
	// order are the same either way.
	spillAll bool

	stepDelay time.Duration      // injected per-record delay (straggler experiments)
	progress  func(frac float64) // consumed-input fraction updates
	cancelled func() bool        // polled in the record loop; true aborts
}

// errCancelled aborts an attempt the master ordered killed.
var errCancelled = fmt.Errorf("mapreduce: attempt cancelled")

// mapCollector accumulates a map attempt's partitioned output under
// the shuffle memory budget, spilling sorted runs to the store when
// the budget fills. It is per-attempt and single-goroutine.
type mapCollector struct {
	rt       *taskRuntime
	node     string
	task     int
	parts    [][]kv
	splitLen int
	arena    byteArena
	mem      int64
	err      error // first spill/combine failure; latched
	out      taskOutput
}

func (c *mapCollector) add(key string, value []byte) {
	p := partition(key, len(c.parts))
	part := c.parts[p]
	if len(part) == cap(part) {
		// Double — append's 1.25x growth past 256 elements allocates
		// about five times the final slice — starting from 2 Ki records,
		// or from the partition's share of what the split (a record per
		// 8 B of it) or the budget lets a run hold.
		first := min(2048, c.splitLen/8/len(c.parts)+16)
		if budget := int(c.rt.cfg.ShuffleMemory); budget > 0 {
			first = min(first, budget/kvOverhead/len(c.parts)+1)
		}
		part = append(make([]kv, 0, max(first, 2*len(part))), part...)
	}
	c.parts[p] = append(part, kv{key: key, val: c.arena.copy(value)})
	c.mem += int64(len(key)) + int64(len(value)) + kvOverhead
	if budget := int64(c.rt.cfg.ShuffleMemory); budget > 0 && c.mem >= budget {
		c.spill()
	}
}

// spill sorts+combines the buffered run, writes it to the store,
// counts it (SpillRuns and SpillBytes are the budget's doing; finish
// counts nothing) and resets the buffer. Errors latch into c.err; the
// attempt surfaces them after the mapper returns.
func (c *mapCollector) spill() {
	if c.err != nil {
		return
	}
	parts, err := c.rt.sortAndCombine(c.parts)
	if err != nil {
		c.err = err
		return
	}
	run, err := c.rt.writeSpill(c.node, c.task, parts)
	if err != nil {
		c.err = err
		return
	}
	c.rt.ctr.add(&c.rt.ctr.SpillRuns, 1)
	last := run.Segs[len(run.Segs)-1] // segments lie back to back
	c.rt.ctr.add(&c.rt.ctr.SpillBytes, last.Off+last.Len)
	c.out.spills = append(c.out.spills, run)
	c.parts = make([][]kv, len(c.parts))
	c.arena = byteArena{}
	c.mem = 0
}

// finish sorts+combines the final run. It stays in memory unless the
// runtime demands everything on the store (spillAll), in which case it
// becomes the last run file — same contents, same run index, so merge
// order is unchanged.
func (c *mapCollector) finish() error {
	if c.err != nil {
		return c.err
	}
	parts, err := c.rt.sortAndCombine(c.parts)
	if err != nil {
		return err
	}
	if c.rt.spillAll {
		if !slices.ContainsFunc(parts, func(p []kv) bool { return len(p) > 0 }) {
			return nil // nothing emitted since the last spill: no run
		}
		run, err := c.rt.writeSpill(c.node, c.task, parts)
		if err != nil {
			return err
		}
		c.out.spills = append(c.out.spills, run)
		return nil
	}
	c.out.mem = parts
	return nil
}

// executeMap runs the mapper over one split and returns the task's
// output: spilled runs plus (unless spillAll) the final in-memory run,
// each sorted and combined. On error, spill files already written
// are deleted.
func (rt *taskRuntime) executeMap(node string, task int, s split) (out *taskOutput, records, outRecords int64, err error) {
	col := &mapCollector{rt: rt, node: node, task: task, parts: make([][]kv, rt.cfg.NumReducers), splitLen: int(s.length)}
	emit := func(key string, value []byte) {
		if col.err != nil {
			return // a spill failed; drop further output
		}
		col.add(key, value)
		outRecords++
	}
	var consumed int64
	err = readRecords(rt.store, s, rt.cfg.Format, node, func(key string, value []byte) error {
		records++
		if rt.stepDelay > 0 {
			time.Sleep(rt.stepDelay)
		}
		if rt.cancelled() {
			return errCancelled
		}
		if s.length > 0 {
			consumed += int64(len(value)) + 1
			if frac := float64(consumed) / float64(s.length); frac < 1 {
				rt.progress(frac)
			}
		}
		if merr := rt.cfg.Mapper.Map(key, value, emit); merr != nil {
			return merr
		}
		return col.err // abort the record loop on spill failure
	})
	if err == nil {
		err = col.finish()
	}
	if err != nil {
		rt.discardOutput(&col.out)
		return nil, 0, 0, err
	}
	return &col.out, records, outRecords, nil
}

// sortAndCombine stable-sorts each partition by key (preserving
// emission order within a key) and folds it through the combiner if
// one is configured.
func (rt *taskRuntime) sortAndCombine(parts [][]kv) ([][]kv, error) {
	for p := range parts {
		stableSortByKey(parts[p])
	}
	if rt.cfg.Combiner != nil {
		for p := range parts {
			combined, cerr := rt.combine(parts[p])
			if cerr != nil {
				return nil, cerr
			}
			parts[p] = combined
		}
	}
	return parts, nil
}

// combine folds a sorted run of pairs through the combiner.
func (rt *taskRuntime) combine(sorted []kv) ([]kv, error) {
	var out []kv
	var arena byteArena
	emit := func(key string, value []byte) {
		out = append(out, kv{key: key, val: arena.copy(value)})
	}
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].key == sorted[i].key {
			j++
		}
		vals := make([][]byte, 0, j-i)
		for _, p := range sorted[i:j] {
			vals = append(vals, p.val)
		}
		rt.ctr.add(&rt.ctr.CombineInput, int64(j-i))
		if err := rt.cfg.Combiner.Reduce(sorted[i].key, vals, emit); err != nil {
			return nil, err
		}
		i = j
	}
	rt.ctr.add(&rt.ctr.CombineOutput, int64(len(out)))
	// Combiner output for a sorted input is sorted as long as the
	// combiner emits the group key; enforce for safety.
	stableSortByKey(out)
	return out, nil
}

// taskSources returns the merge sources for one task's partition p: a
// streaming cursor per run segment on the store (empty segments
// skipped), then the final in-memory run, carrying the (task, run)
// tie-break indexes the merge's determinism relies on — spills in spill
// order, the in-memory run last. Sources opened before a failure are
// still returned, for the caller to close.
func (rt *taskRuntime) taskSources(out *taskOutput, task, p int, node string) (srcs []mergeSource, err error) {
	for ri, run := range out.spills {
		cur, err := openSpillCursor(rt.store, run.File, run.Segs[p], node)
		if err != nil {
			return srcs, err
		}
		if cur != nil { // nil: empty segment
			srcs = append(srcs, mergeSource{s: cur, task: task, run: ri})
		}
	}
	if p < len(out.mem) && len(out.mem[p]) > 0 {
		srcs = append(srcs, mergeSource{s: &memStream{pairs: out.mem[p]}, task: task, run: len(out.spills)})
	}
	return srcs, nil
}

// writeMapOutput streams one task's partitions, in partition order,
// each merged across its runs — Hadoop's NumReduceTasks=0 output
// path. With a combiner configured, merged groups are re-folded
// through it: each spilled run was combined independently, so without
// the re-fold a spilled map-only job would emit partial aggregates
// where the in-memory path emits one combined record per key.
func (rt *taskRuntime) writeMapOutput(name, node string, task int, out *taskOutput) error {
	w, err := rt.store.Create(name, node)
	if err != nil {
		return err
	}
	lw := &lineWriter{w: w}
	var refold StreamReducer = identityStreamReducer{}
	if rt.cfg.Combiner != nil && len(out.spills) > 0 {
		refold = streamAdapter{rt.cfg.Combiner}
	}
	for p := 0; p < rt.cfg.NumReducers; p++ {
		srcs, err := rt.taskSources(out, task, p, node)
		var m *merger
		if err == nil {
			rt.ctr.add(&rt.ctr.MergeStreams, int64(len(srcs)))
			m, err = newMerger(srcs)
		}
		if err == nil {
			_, err = drainGroups(m, refold, lw.emit, lw.fail)
		}
		closeSources(srcs)
		if err != nil {
			_ = w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	rt.ctr.add(&rt.ctr.OutputRecords, lw.n)
	return nil
}

// drainGroups streams merged groups through red: one Values cursor
// per key, drained after the reducer returns so early-stopping
// reducers still advance the merge. wfail, when non-nil, surfaces a
// latched output-write failure after each group.
func drainGroups(m *merger, red StreamReducer, emit Emit, wfail func() error) (groups int64, err error) {
	for {
		head, ok := m.peek()
		if !ok {
			return groups, nil
		}
		key := head.key
		vals := &Values{m: m, key: key}
		if rerr := red.ReduceStream(key, vals, emit); rerr != nil {
			return groups, fmt.Errorf("mapreduce: reduce key %q: %w", key, rerr)
		}
		vals.drain()
		if vals.err != nil {
			return groups, vals.err
		}
		if wfail != nil {
			if werr := wfail(); werr != nil {
				return groups, werr
			}
		}
		groups++
	}
}

// lineWriter emits "key\tvalue\n" records into an output stream,
// latching the first write error — the framework's text output
// format, shared by reduce, map-only and distributed attempts.
type lineWriter struct {
	w    io.Writer
	line []byte
	n    int64
	err  error
}

func (lw *lineWriter) emit(key string, value []byte) {
	if lw.err != nil {
		return
	}
	lw.line = append(lw.line[:0], key...)
	lw.line = append(lw.line, '\t')
	lw.line = append(lw.line, value...)
	lw.line = append(lw.line, '\n')
	if _, err := lw.w.Write(lw.line); err != nil {
		lw.err = err
		return
	}
	lw.n++
}

func (lw *lineWriter) fail() error { return lw.err }
