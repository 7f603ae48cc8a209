package mapreduce

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/mrpc"
)

// run is one partition's buffered map output, and what a combiner's
// emits are collected in. A run's order is (key, emission index) and
// keys repeat, so a key is stored once — a keyTable interns it to an ID
// — its bytes and every value go into one append-only buffer, and a
// pair is twelve bytes of offsets: no Go pointer per record, so a
// buffered run is nothing for the GC to scan and nothing in it moves
// under a write barrier. A run that folds the sum combiner keeps a
// total per key instead, and makes a record of each when it is ordered.
type run struct {
	ents []keyEnt  // by key ID: first-emission order
	data []byte    // key and value bytes, as they came
	recs []rec     // emission order
	sums []int     // by key ID, when folding
	ids  []keyRank // after order: the keys in key order
	ord  []uint32  // after order: record indexes in (key, emission) order
}

type keyEnt struct {
	off, len uint32 // the key is data[off : off+len]
	end      uint32 // the key's record count; after order, where its records end in ord
}

type rec struct{ key, off, len uint32 } // key ID; the value is data[off : off+len]

type keyRank struct {
	pre uint64 // the key's first 8 bytes, big-endian and zero-padded: its order, but for ties
	id  uint32
}

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

// intern copies a new key in and returns its ID.
func (r *run) intern(key string) uint32 {
	r.ents = append(double(r.ents, 1), keyEnt{off: uint32(len(r.data)), len: uint32(len(key))})
	r.data = append(double(r.data, len(key)), key...)
	return uint32(len(r.ents) - 1)
}

// push copies value in as key id's next record.
func (r *run) push(id uint32, value []byte) {
	r.ents[id].end++
	r.recs = append(double(r.recs, 1), rec{key: id, off: uint32(len(r.data)), len: uint32(len(value))})
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
		var pre [8]byte
		copy(pre[:], r.key(uint32(id)))
		r.ids[id] = keyRank{binary.BigEndian.Uint64(pre[:]), uint32(id)}
	}
	slices.SortFunc(r.ids, func(a, b keyRank) int {
		if c := cmp.Compare(a.pre, b.pre); c != 0 {
			return c
		}
		return bytes.Compare(r.key(a.id), r.key(b.id))
	})
	at := uint32(0)
	for _, k := range r.ids { // a key's count becomes where its records start
		e := &r.ents[k.id]
		at, e.end = at+e.end, at
	}
	r.ord = double(r.ord[:0], len(r.recs))[:len(r.recs)]
	for i := range r.recs { // and, record by record, where they end
		e := &r.ents[r.recs[i].key]
		r.ord[e.end] = uint32(i)
		e.end++
	}
}

// reset empties the run and keeps its buffers for the next.
func (r *run) reset() {
	r.ents, r.data, r.recs, r.sums, r.ids, r.ord = r.ents[:0], r.data[:0], r.recs[:0], r.sums[:0], r.ids[:0], r.ord[:0]
}

// keyTable interns keys for a set of runs: an open-addressing table on
// a key's maphash whose slot says which run holds the key and its ID
// there, so a record costs one lookup whichever partition it goes to.
type keyTable struct {
	slots []keySlot // a power of two long, at most three quarters full
	n     int
}

type keySlot struct{ hash, run, id uint32 } // the key is runs[run].key(id-1); id 0 = a free slot

// keySeed seeds the tables' hash: their order is nobody's output.
var keySeed = maphash.MakeSeed()

// find returns key's slot, or the free one its probe ends at, which
// stays valid until the next find; runs are what the IDs point into.
func (t *keyTable) find(runs []run, h uint32, key string) *keySlot {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]keySlot, max(64, 2*len(old)))
		for _, s := range old {
			if s.id != 0 {
				*t.find(runs, s.hash, bytesString(runs[s.run].key(s.id-1))) = s
			}
		}
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.id == 0 || s.hash == h && string(runs[s.run].key(s.id-1)) == key {
			return s
		}
	}
}

// put fills the free slot find returned: the key is run's ID id.
func (t *keyTable) put(s *keySlot, h, run, id uint32) { *s, t.n = keySlot{h, run, id + 1}, t.n+1 }

// add copies a pair into runs[0], the one run t interns keys for: how
// a combiner's emits are collected.
func (t *keyTable) add(runs []run, key string, value []byte) {
	h := uint32(maphash.String(keySeed, key))
	s := t.find(runs, h, key)
	if s.id == 0 {
		t.put(s, h, 0, runs[0].intern(key))
	}
	runs[0].push(s.id-1, value)
}

func (t *keyTable) reset() { clear(t.slots); t.n = 0 }

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
	*grown
	rt    *taskRuntime
	node  string
	task  int
	fold  bool  // the combiner is SumReducer: a run keeps a total per key, not records
	parts []run // runs[:NumReducers]
	comb  *run  // the combiner's output for the partition being folded
	mem   int64
	err   error // first spill/combine failure; latched
	out   taskOutput
}

// grown is what a map attempt grows with its input, kept in spares for
// the next attempt's collector: an attempt whose output stayed in memory
// keeps its runs, so the pool retains at most what running attempts grew.
type grown struct {
	runs []run    // one per reduce partition, then comb
	keys keyTable // the partitions' keys, or while a run is combined comb's
	buf  []byte   // the run file write buffer
}

var spares = sync.Pool{New: func() any { return new(grown) }}

// partitionHash is the partitioner, called once per distinct key in a
// run. Tests count its calls.
var partitionHash = fnv1a

func newMapCollector(rt *taskRuntime, node string, task int) *mapCollector {
	g := spares.Get().(*grown)
	n := rt.cfg.NumReducers + 1
	if cap(g.runs) < n {
		g.runs = slices.Grow(g.runs[:cap(g.runs)], n-cap(g.runs))
	}
	_, fold := rt.cfg.Combiner.(sumReducer)
	c := &mapCollector{grown: g, rt: rt, node: node, task: task, fold: fold}
	c.runs = g.runs[:n]
	c.parts, c.comb = c.runs[:n-1], &c.runs[n-1]
	return c
}

// release gives what the collector grew to spares, but for its runs
// when they are the attempt's output.
func (c *mapCollector) release() {
	if c.out.mem != nil {
		c.runs = nil
	}
	for i := range c.runs {
		c.runs[i].reset()
	}
	c.keys.reset()
	spares.Put(c.grown)
}

func (c *mapCollector) add(key string, value []byte) {
	if c.err != nil {
		return // a spill failed; drop further output
	}
	h := uint32(maphash.String(keySeed, key))
	s := c.keys.find(c.parts, h, key)
	n, v, err := int64(len(key))+int64(len(value))+kvOverhead, 0, error(nil)
	if c.fold {
		if v, err = count(key, value); err == nil && s.id == 0 { // a folding run holds a key and its total
			n = int64(len(key)) + kvOverhead
		} else if err == nil {
			n = 0
		}
	}
	if c.mem+n > runLimit {
		// Budget or none, a run is cut before a uint32 in it could wrap —
		// no buffer or count outgrows what the run accounts for — by the
		// spill a full budget makes, so output bytes stay a budgeted job's.
		if c.spill(); n > runLimit && c.err == nil {
			c.err = errors.New("mapreduce: map output record too large for a run")
		}
		if c.err != nil {
			return
		}
		s = c.keys.find(c.parts, h, key)
	}
	if s.id == 0 {
		p := partitionHash(key) % uint32(len(c.parts))
		c.keys.put(s, h, p, c.parts[p].intern(key))
		if c.fold {
			c.parts[p].sums = append(double(c.parts[p].sums, 1), 0)
		}
	}
	if r, id := &c.parts[s.run], s.id-1; c.fold && err == nil {
		r.sums[id] += v
		c.rt.ctr.CombineInput++
	} else { // a record; in a folding run, a value that is not a count
		r.push(id, value)
	}
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
// and combines it. A folding run is combined already: its totals
// become its records, formatted as SumReducer emits them — unless it
// holds records, values that were not counts, and is combined as any
// run is, to fail as SumReducer fails. Any other combiner walks the
// ordered run in place through the same group loop a reducer reads
// the merge through, its emits are collected in a run of their own,
// and that run — ordered the same way, since a combiner need not emit
// the group key — takes the partition's place.
func (c *mapCollector) orderAndCombine() error {
	c.keys.reset()
	emit := func(key string, value []byte) { c.keys.add(c.runs[len(c.parts):], key, value) }
	var num [20]byte
	for p := range c.parts {
		r := &c.parts[p]
		folded := c.fold && len(r.recs) == 0
		for id, sum := range r.sums {
			r.push(uint32(id), strconv.AppendInt(num[:0], int64(sum), 10))
		}
		if r.order(); folded {
			c.rt.ctr.CombineOutput += int64(len(r.recs))
		}
		if folded || c.rt.cfg.Combiner == nil {
			continue
		}
		if _, err := drainGroups(&Values{r: r}, c.rt.cfg.Combiner, emit, func() error { return nil }); err != nil {
			return err
		}
		c.rt.ctr.CombineInput += int64(len(r.recs))
		c.rt.ctr.CombineOutput += int64(len(c.comb.recs))
		c.comb.order()
		r.reset()
		c.keys.reset()
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
		} else if srcs, _, err = openSources(context.TODO(), rt.store, out.spills, task, p, node, nil); err == nil {
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
			return groups, reduceErr(vals.key, rerr)
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

func reduceErr(key string, err error) error {
	return fmt.Errorf("mapreduce: reduce key %q: %w", key, err)
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
