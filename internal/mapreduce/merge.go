package mapreduce

import "strings"

// The shuffle merge: every committed map task contributes its runs
// for one partition — segments streamed from the DFS or fetched from
// the mapper's worker, plus, for a map-only task merging its own
// output, the final in-memory run — and a k-way heap merge interleaves
// them into one key-ordered record stream. Ties on the key break by
// (task, run) sequence, which makes the merged value order per key
// exactly (map task index, emission order): the order of one in-memory
// run over the tasks in index order, so spilled and in-memory jobs emit
// identical bytes.

// kvStream yields one run's records in sorted order. next reports
// ok=false at end of run; returned slices stay valid after the next
// call (memory runs point into the run's buffer, spill cursors
// into chunks they never rewrite).
type kvStream interface {
	next() (key string, val []byte, ok bool, err error)
	close() // releases the run file, if the stream holds one
}

// memStream cursors over an ordered in-memory run: one key string per
// distinct key, values pointing into the run's buffer.
type memStream struct {
	r         *run
	k, j, end int // next key in r.ids, next record in r.ord, end of the current key's records
	key       string
}

func (s *memStream) next() (string, []byte, bool, error) {
	if s.j == len(s.r.ord) {
		return "", nil, false, nil
	}
	if s.j == s.end {
		id := s.r.ids[s.k]
		s.k++
		s.key, s.end = string(s.r.key(id)), int(s.r.ents[id].end)
	}
	s.j++
	return s.key, s.r.val(s.r.ord[s.j-1]), true, nil
}

func (s *memStream) close() {}

// mergeSource is one run stream plus its deterministic tie-break
// position: the owning map task's index and the run's index within
// that task (spills in spill order, the in-memory run last).
type mergeSource struct {
	s         kvStream
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
	src       kvStream
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

// peek returns the smallest head record without consuming it.
func (m *merger) peek() (*mergeItem, bool) {
	if len(m.items) == 0 {
		return nil, false
	}
	return m.items[0], true
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

// Values streams one key's values to a StreamReducer in merge order.
// Slices returned by Next remain valid after subsequent calls, so a
// reducer may retain them (the Reducer adapter does). After the
// reducer returns, drainGroups drains any unconsumed values and checks
// Err, so reducers may stop early.
type Values struct {
	m   *merger
	key string
	err error
}

// Next returns the group's next value, or ok=false when the group
// (or the stream, on error — check Err) is exhausted.
func (v *Values) Next() ([]byte, bool) {
	if v.err != nil {
		return nil, false
	}
	it, ok := v.m.peek()
	if !ok || it.key != v.key {
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
// the next key even when the reducer stopped early.
func (v *Values) drain() {
	for {
		if _, ok := v.Next(); !ok {
			return
		}
	}
}

// streamAdapter runs a [][]byte Reducer on the streaming merge by
// collecting the group first — the compatibility path; memory for the
// group is O(group) where a true StreamReducer is O(1).
type streamAdapter struct{ r Reducer }

func (a streamAdapter) ReduceStream(key string, values *Values, emit Emit) error {
	var vals [][]byte
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		vals = append(vals, v)
	}
	if err := values.Err(); err != nil {
		return err
	}
	return a.r.Reduce(key, vals, emit)
}

// identityStreamReducer passes every value through under its key —
// the nil-Reducer default, now streaming.
type identityStreamReducer struct{}

func (identityStreamReducer) ReduceStream(key string, values *Values, emit Emit) error {
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		emit(key, v)
	}
	return values.Err()
}
