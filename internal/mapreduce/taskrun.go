package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/mrpc"
)

// run is one partition's buffered map output, and what a combiner's
// emits are collected in. A run's order is (key, emission index) and
// keys repeat, so a key is stored once: an open-addressing table on the
// FNV-1a hash the partitioner needs anyway interns it to an ID, its
// bytes and every value go into one append-only buffer, and a pair is
// twelve bytes of offsets — no Go pointer per record, so a buffered
// run is nothing for the GC to scan and nothing in it moves under a
// write barrier.
type run struct {
	slots []uint32 // key ID + 1 by hash, 0 = free; a power of two long, at most half full
	ents  []keyEnt // by key ID: first-emission order
	data  []byte   // key and value bytes, as they came
	recs  []rec    // emission order
	ids   []uint32 // after order: key IDs in key order
	ord   []uint32 // after order: record indexes in (key, emission) order
}

type keyEnt struct {
	pre            uint64 // the key's first 8 bytes, big-endian and zero-padded: its order, but for ties
	hash, off, len uint32 // the key is data[off : off+len]
	end            uint32 // the key's record count; after order, where its records end in ord
}

type rec struct{ key, off, len uint32 } // key ID; the value is data[off : off+len]

// runLimit is the most a run may account for (see mapCollector.add):
// what keeps its uint32 offsets and counts from wrapping. Tests lower it.
var runLimit int64 = math.MaxUint32

func (r *run) key(id uint32) []byte {
	e := &r.ents[id]
	return r.data[e.off : e.off+e.len]
}

func (r *run) val(i uint32) []byte {
	rc := &r.recs[i]
	return r.data[rc.off : rc.off+rc.len : rc.off+rc.len]
}

// find returns the table slot holding key's ID, or the free one its
// probe ends at. The probe starts at the top bits of a multiplicative
// mix of h, since one partition's keys share h mod R.
func (r *run) find(h uint32, key string) *uint32 {
	mask := uint32(len(r.slots) - 1)
	for i := h * 2654435769 >> bits.LeadingZeros32(mask); ; i = (i + 1) & mask {
		if s := &r.slots[i]; *s == 0 || r.ents[*s-1].hash == h && string(r.key(*s-1)) == key {
			return s
		}
	}
}

// add copies one pair in; h is fnv1a(key).
func (r *run) add(h uint32, key string, value []byte) {
	if 2*len(r.ents) >= len(r.slots) {
		r.slots = make([]uint32, max(64, 2*len(r.slots)))
		for id := range r.ents {
			*r.find(r.ents[id].hash, bytesString(r.key(uint32(id)))) = uint32(id) + 1
		}
	}
	s := r.find(h, key)
	if *s == 0 {
		var pre [8]byte
		copy(pre[:], key)
		r.ents = append(double(r.ents, 1), keyEnt{pre: binary.BigEndian.Uint64(pre[:]), hash: h, off: uint32(len(r.data)), len: uint32(len(key))})
		r.data = append(double(r.data, len(key)), key...)
		*s = uint32(len(r.ents))
	}
	r.ents[*s-1].end++
	r.recs = append(double(r.recs, 1), rec{key: *s - 1, off: uint32(len(r.data)), len: uint32(len(value))})
	r.data = append(double(r.data, len(value)), value...)
}

// double returns s with room for n more elements, at least doubling it
// when it has to grow: append's 1.25x steps past 256 elements allocate
// about five times the final buffer.
func double[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, len(s)+max(n, 64))
}

// order computes the run's order: the distinct keys are sorted — by
// their 8-byte prefixes, the bytes only on a tie — and the records
// counting-scattered by their key's rank, which keeps emission order
// within a key by construction — O(n + d log d) for n records of d
// keys, and the sequence a stable sort of the records by key gives.
func (r *run) order() {
	r.ids = double(r.ids[:0], len(r.ents))[:len(r.ents)]
	for id := range r.ids {
		r.ids[id] = uint32(id)
	}
	slices.SortFunc(r.ids, func(a, b uint32) int {
		if c := cmp.Compare(r.ents[a].pre, r.ents[b].pre); c != 0 {
			return c
		}
		return bytes.Compare(r.key(a), r.key(b))
	})
	at := uint32(0)
	for _, id := range r.ids { // a key's count becomes where its records start
		e := &r.ents[id]
		at, e.end = at+e.end, at
	}
	r.ord = double(r.ord[:0], len(r.recs))[:len(r.recs)]
	for i := range r.recs { // and, record by record, where they end
		e := &r.ents[r.recs[i].key]
		r.ord[e.end] = uint32(i)
		e.end++
	}
}

// reset empties the run and keeps its table and buffers for the next.
func (r *run) reset() {
	clear(r.slots)
	r.ents, r.data, r.recs, r.ids, r.ord = r.ents[:0], r.data[:0], r.recs[:0], r.ids[:0], r.ord[:0]
}

// taskRuntime is one attempt's execution machinery: running a mapper
// over a split with sort-spill under the shuffle budget, combining,
// writing and reading spill runs, and merging runs back out. A worker
// binds one per attempt against its Store (the DFS, or the master's
// proxy) with attempt-scoped spill names.
type taskRuntime struct {
	store    Store
	cfg      Config             // defaults applied
	ctr      *mrpc.TaskCounters // the attempt's deltas, reported with its completion
	shufDir  string
	spillTag string // attempt-scoping prefix in spill names

	// spillAll makes finish() write the final run to the store — a
	// shuffled map's output must be entirely on the DFS so reducers
	// elsewhere can fetch it — as a map-only attempt does too when it
	// spilled. Run contents and order are the same either way.
	spillAll bool

	stepDelay time.Duration      // injected per-record delay (straggler experiments)
	progress  func(frac float64) // consumed-input fraction updates
	cancelled func() bool        // polled in the record loop; true aborts
}

// errCancelled aborts an attempt the master ordered killed.
var errCancelled = fmt.Errorf("mapreduce: attempt cancelled")

// mapCollector accumulates a map attempt's partitioned output under
// the shuffle memory budget, spilling sorted runs to the store when
// the budget fills. It is per-attempt and single-goroutine; its tables
// and buffers are reset, not reallocated, between the attempt's runs.
type mapCollector struct {
	rt    *taskRuntime
	node  string
	task  int
	runs  []run  // one per reduce partition, then comb
	parts []run  // runs[:NumReducers]
	comb  *run   // the combiner's output for the partition being folded
	buf   []byte // the run file write buffer, reused
	mem   int64
	err   error // first spill/combine failure; latched
	out   taskOutput
}

// spares holds what grows with a map attempt's input — a run's record
// and order arrays, the run-file write buffer — for the next attempt's
// runs. Only an attempt whose runs all went to the store gives them
// back, so the pool retains at most what the attempts running at once
// grew.
var spares sync.Pool // of *spare

type spare struct {
	recs []rec
	ord  []uint32
	buf  []byte // only in the first spare of an attempt
}

func newMapCollector(rt *taskRuntime, node string, task int) *mapCollector {
	c := &mapCollector{rt: rt, node: node, task: task, runs: make([]run, rt.cfg.NumReducers+1)}
	c.parts, c.comb = c.runs[:rt.cfg.NumReducers], &c.runs[rt.cfg.NumReducers]
	for i := range c.runs {
		if s, ok := spares.Get().(*spare); ok {
			c.runs[i].recs, c.runs[i].ord = s.recs, s.ord
			if s.buf != nil {
				c.buf = s.buf
			}
		}
	}
	return c
}

// release gives the collector's per-record arrays and write buffer to
// spares, unless a run stayed in memory as the attempt's output.
func (c *mapCollector) release() {
	if c.out.mem != nil {
		return
	}
	for i := range c.runs {
		r := &c.runs[i]
		spares.Put(&spare{recs: r.recs[:0], ord: r.ord[:0], buf: c.buf[:0]})
		r.recs, r.ord, c.buf = nil, nil, nil
	}
}

func (c *mapCollector) add(key string, value []byte) {
	n := int64(len(key)) + int64(len(value)) + kvOverhead
	if c.mem+n > runLimit {
		// Budget or none, a run is cut before a uint32 in it could wrap —
		// no buffer or count outgrows what the run accounts for — by the
		// spill a full budget makes, so output bytes stay a budgeted job's.
		if c.spill(); n > runLimit && c.err == nil {
			c.err = errors.New("mapreduce: map output record too large for a run")
		}
	}
	if c.err != nil {
		return // a spill failed; drop further output
	}
	h := fnv1a(key)
	c.parts[h%uint32(len(c.parts))].add(h, key, value)
	c.rt.ctr.MapOutputRecords++
	c.mem += n
	if budget := int64(c.rt.cfg.ShuffleMemory); budget > 0 && c.mem >= budget {
		c.spill()
	}
}

// spill writes the buffered run to the store and counts it: SpillRuns
// and SpillBytes are the budget's doing, finish counts nothing. Errors
// latch into c.err; the attempt surfaces them after the mapper returns.
func (c *mapCollector) spill() {
	if c.err != nil {
		return
	}
	var n int64
	if n, c.err = c.writeRun(); c.err == nil {
		c.rt.ctr.SpillRuns++
		c.rt.ctr.SpillBytes += n
	}
}

// finish orders+combines the final run. It stays in memory if it is
// the attempt's only run and the runtime does not demand everything on
// the store (spillAll); otherwise it becomes the last run file — same
// contents, same run index, so merge order is unchanged.
func (c *mapCollector) finish() error {
	switch {
	case c.err != nil:
	case !c.rt.spillAll && len(c.out.spills) == 0:
		c.out.mem, c.err = c.parts, c.orderAndCombine()
	case c.mem > 0: // else nothing emitted since the last spill: no run
		_, c.err = c.writeRun()
	}
	return c.err
}

// orderAndCombine orders each partition's run by (key, emission index)
// and, if a combiner is configured, folds it: the combiner walks the
// ordered run in place through the same group loop a reducer reads the
// merge through, its emits are collected in a run of their own, and
// that run — ordered the same way, since a combiner need not emit the
// group key — takes the partition's place.
func (c *mapCollector) orderAndCombine() error {
	emit := func(key string, value []byte) { c.comb.add(fnv1a(key), key, value) }
	for p := range c.parts {
		r := &c.parts[p]
		r.order()
		if c.rt.cfg.Combiner == nil {
			continue
		}
		if _, err := drainGroups(&Values{r: r}, c.rt.cfg.Combiner, emit, func() error { return nil }); err != nil {
			return err
		}
		c.rt.ctr.CombineInput += int64(len(r.recs))
		c.rt.ctr.CombineOutput += int64(len(c.comb.recs))
		c.comb.order()
		r.reset()
		*r, *c.comb = *c.comb, *r
	}
	return nil
}

// executeMap runs the mapper over one split and returns the task's
// output: spilled runs plus (unless spillAll) the final in-memory run.
// On error, spill files already written are deleted.
func (rt *taskRuntime) executeMap(node string, task int, s split) (*taskOutput, error) {
	col := newMapCollector(rt, node, task)
	emit := Emit(col.add)
	var consumed int64
	err := readRecords(rt.store, s, rt.cfg.Format, node, func(key string, value []byte) error {
		rt.ctr.InputRecords++
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
	col.release()
	if err != nil {
		rt.discardOutput(&col.out)
		return nil, err
	}
	return &col.out, nil
}

// taskSources returns the merge sources for one task's partition p: a
// streaming cursor per run segment on the store (empty segments
// skipped), carrying the (task, run) tie-break indexes the merge's
// determinism relies on — spills in spill order. Sources opened before
// a failure are still returned, for the caller to close.
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
	return srcs, nil
}

// writeMapOutput streams one task's partitions, in partition order —
// Hadoop's NumReduceTasks=0 output path. A run kept in memory is
// walked in place; runs on the store are merged, and with a combiner
// configured the merged groups are re-folded through it: each spilled
// run was combined independently, so without the re-fold a spilled
// map-only job would emit partial aggregates where the in-memory path
// emits one combined record per key.
func (rt *taskRuntime) writeMapOutput(name, node string, task int, out *taskOutput) error {
	w, err := rt.store.Create(name, node)
	if err != nil {
		return err
	}
	lw := &lineWriter{w: w}
	for p := 0; p < rt.cfg.NumReducers; p++ {
		var srcs []mergeSource
		vals, refold := &Values{}, rt.cfg.Combiner
		if out.mem != nil {
			vals.r, refold = &out.mem[p], nil
		} else if srcs, err = rt.taskSources(out, task, p, node); err == nil {
			rt.ctr.MergeStreams += int64(len(srcs))
			vals.m, err = newMerger(srcs)
		}
		if err == nil {
			_, err = drainGroups(vals, refold, lw.emit, lw.fail)
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
	rt.ctr.OutputRecords += lw.n
	return nil
}

// drainGroups streams the groups of vals — a merge, or an ordered run
// walked in place — through red, a nil red passing every value through
// under its key: one Values cursor, re-aimed at each key and drained
// after the reducer returns so early-stopping reducers still advance.
// wfail surfaces a latched output-write failure (or a kill order)
// after each group.
func drainGroups(vals *Values, red Reducer, emit Emit, wfail func() error) (groups int64, err error) {
	for vals.nextGroup() {
		if red == nil {
			for v, ok := vals.Next(); ok; v, ok = vals.Next() {
				emit(vals.key, v)
			}
		} else if rerr := red.Reduce(vals.key, vals, emit); rerr != nil {
			return groups, fmt.Errorf("mapreduce: reduce key %q: %w", vals.key, rerr)
		}
		vals.drain()
		if vals.err != nil {
			return groups, vals.err
		}
		if werr := wfail(); werr != nil {
			return groups, werr
		}
		groups++
	}
	return groups, nil
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
