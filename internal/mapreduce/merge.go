package mapreduce

import "strings"

// The shuffle merge: every committed map task contributes its runs
// for one partition — segments streamed from the DFS or fetched from
// the mapper's worker — and a k-way heap merge interleaves them into
// one key-ordered record stream. Ties on the key break by
// (task, run) sequence, which makes the merged value order per key
// exactly (map task index, emission order): the order of one in-memory
// run over the tasks in index order, so spilled and in-memory jobs emit
// identical bytes.

// mergeSource is one run's segment cursor plus its deterministic
// tie-break position: the owning map task's index and the run's index
// within that task (spills in spill order).
type mergeSource struct {
	s         *spillCursor
	task, run int
}

func closeSources(srcs []mergeSource) {
	for _, sc := range srcs {
		sc.s.close()
	}
}

// mergeItem is a heap entry: the head record of one run stream.
type mergeItem struct {
	key       string
	val       []byte
	src       *spillCursor
	task, run int
}

// before orders heap entries: key order, ties by (task, run).
func (a *mergeItem) before(b *mergeItem) bool {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	if a.task != b.task {
		return a.task < b.task
	}
	return a.run < b.run
}

// merger is the k-way merge: a binary min-heap of stream heads, sifted
// directly rather than through container/heap's interface calls — pop
// runs once per shuffled record. It is driven single-goroutine by one
// reduce (or map-only) task.
type merger struct {
	items []*mergeItem
	bytes int64 // key+value bytes popped; the task's shuffle volume
}

// down restores the heap order below slot i.
func (m *merger) down(i int) {
	h := m.items
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// newMerger primes the heap with each stream's head record. Streams
// that error during priming abort the merge.
func newMerger(srcs []mergeSource) (*merger, error) {
	m := &merger{}
	for _, sc := range srcs {
		k, v, ok, err := sc.s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		m.items = append(m.items, &mergeItem{key: k, val: v, src: sc.s, task: sc.task, run: sc.run})
	}
	for i := len(m.items)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

// pop consumes the smallest record and refills its stream's heap slot.
func (m *merger) pop() (string, []byte, error) {
	it := m.items[0]
	key, val := it.key, it.val
	m.bytes += int64(len(key) + len(val))
	k, v, ok, err := it.src.next()
	if err != nil {
		return "", nil, err
	}
	if ok {
		it.key, it.val = k, v
	} else { // stream exhausted: the last entry takes its slot
		last := len(m.items) - 1
		m.items[0], m.items[last] = m.items[last], nil
		m.items = m.items[:last]
	}
	m.down(0)
	return key, val, nil
}

// Values streams one key's values to a Reducer in merge order. A value
// returned by Next is valid only until the next call to Next: a reducer
// that keeps one copies it. After the reducer returns, drainGroups
// drains any unconsumed values and checks Err, so reducers may stop
// early.
type Values struct {
	m *merger // what a reducer reads
	// What a combiner reads instead: its ordered run, in place. A key's
	// records are contiguous in r.ord and end at its ents[id].end, so a
	// group is a range and draining it is a jump.
	r         *run
	k, j, end int // r's next key in r.ids, next record in r.ord, end of the group's records
	key       string
	err       error
	num       [20]byte // SumReducer's total, formatted: Emit copies it
}

// nextGroup aims v at the next key, reporting false past the last.
func (v *Values) nextGroup() bool {
	if v.r == nil {
		if len(v.m.items) > 0 { // the smallest head record is the next group's
			v.key = v.m.items[0].key
		}
		return len(v.m.items) > 0
	}
	if v.k == len(v.r.ids) {
		return false
	}
	id := v.r.ids[v.k].id
	v.k, v.end, v.key = v.k+1, int(v.r.ents[id].end), bytesString(v.r.key(id))
	return true
}

// Next returns the group's next value, or ok=false when the group
// (or the stream, on error — check Err) is exhausted.
func (v *Values) Next() ([]byte, bool) {
	if v.r != nil && v.j < v.end {
		v.j++
		return v.r.val(v.r.ord[v.j-1]), true
	}
	if v.r != nil || v.err != nil {
		return nil, false
	}
	if len(v.m.items) == 0 || v.m.items[0].key != v.key {
		return nil, false
	}
	_, val, err := v.m.pop()
	if err != nil {
		v.err = err
		return nil, false
	}
	return val, true
}

// Err reports a merge read failure (a spill segment that could not be
// streamed). A reducer that sees Next return false should surface
// Err; drainGroups checks it regardless.
func (v *Values) Err() error { return v.err }

// drain consumes the rest of the group so the merge can advance to
// the next key even when the reducer stopped early; a run's group is
// skipped in one step.
func (v *Values) drain() {
	for v.r == nil {
		if _, ok := v.Next(); !ok {
			return
		}
	}
	v.j = v.end
}
