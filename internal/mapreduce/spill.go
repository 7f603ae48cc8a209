package mapreduce

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/mrpc"
)

// Map-side spilling: when a map task's accumulated intermediate pairs
// reach Config.ShuffleMemory, the task sorts (and combines) what it
// holds and writes the run as one segment file into the DFS, then
// starts a fresh run. A spill file holds every partition's segment
// back to back; each segment is a sorted sequence of length-prefixed
// records:
//
//	uvarint keyLen | uvarint valLen | key bytes | value bytes
//
// Per-partition geometry (offset, length, record count) is the run's
// mrpc.RunRef rather than encoded in the file: it reaches the reducers
// through the master, so the file never has to describe itself.

// kvOverhead is the accounting cost charged per buffered pair on top
// of its key and value bytes, so tiny-record jobs stay honest about
// their footprint. It is 48 — a pair's headers when a pair was a struct
// of them — so that a budget cuts the runs it always cut.
const kvOverhead = 48

// spillReadBuf is how much of a segment a merge cursor reads at a
// time. Merge memory is O(streams × spillReadBuf + what the reducer
// still holds).
const spillReadBuf = 32 * 1024

// shuffleEpoch disambiguates the spill directories of jobs that
// share an OutputDir across a process's lifetime (reruns into the
// same directory, back-to-back benchmark iterations).
var shuffleEpoch atomic.Int64

// taskOutput is a map attempt's intermediate output: runs on the store
// in spill order followed by the final in-memory run (none once
// spillAll wrote it out). Merge order within a task is (run index,
// record index), which equals emission order split across runs — what
// makes spilled and in-memory jobs byte-identical.
type taskOutput struct {
	mem    []run // final run, per partition; ordered (and combined)
	spills []mrpc.RunRef
}

// writeRun orders+combines the buffered run, streams it into a new DFS
// file — the task's next run — and empties the buffers for the run
// after. It returns the file's length.
func (c *mapCollector) writeRun() (int64, error) {
	if err := c.orderAndCombine(); err != nil {
		return 0, err
	}
	run := mrpc.RunRef{
		File: fmt.Sprintf("%s/spill-%s%05d-%06d", c.rt.shufDir, c.rt.spillTag, c.task, len(c.out.spills)+1),
		Segs: make([]mrpc.SegRef, len(c.parts)),
	}
	w, err := c.rt.store.Create(run.File, c.node)
	if err != nil {
		return 0, err
	}
	buf, off := c.buf[:0], int64(0)
	flush := func() {
		if err == nil {
			_, err = w.Write(buf)
		}
		off += int64(len(buf))
		buf = buf[:0]
	}
	for p := range c.parts {
		r, j := &c.parts[p], 0
		start := off + int64(len(buf))
		for _, id := range r.ids {
			key := r.key(id)
			for end := int(r.ents[id].end); j < end; j++ {
				val := r.val(r.ord[j])
				buf = binary.AppendUvarint(buf, uint64(len(key)))
				buf = binary.AppendUvarint(buf, uint64(len(val)))
				buf = append(append(buf, key...), val...)
				if len(buf) >= spillReadBuf {
					flush()
				}
			}
		}
		run.Segs[p] = mrpc.SegRef{Off: start, Len: off + int64(len(buf)) - start, Records: len(r.recs)}
		r.reset()
	}
	flush()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = c.rt.store.Delete(run.File)
		return 0, fmt.Errorf("mapreduce: spill %s: %w", run.File, err)
	}
	c.out.spills, c.buf, c.mem = append(c.out.spills, run), buf, 0
	return off, nil
}

// discardOutput deletes an uncommitted attempt's spill files — losing
// speculative attempts and failed attempts clean up after themselves.
func (rt *taskRuntime) discardOutput(out *taskOutput) {
	for _, run := range out.spills {
		_ = rt.store.Delete(run.File)
	}
}

// spillCursor streams one segment's records in sorted order. It reads
// the segment a chunk at a time and decodes in place: values alias
// their chunk, which is never rewritten, so slices handed to the merge
// stay valid after the cursor advances — the contract Values.Next
// exposes to reducers. A run repeats its keys, so the key string is
// allocated once per distinct key.
type spillCursor struct {
	r    io.Reader // the rest of the segment; nil once buf holds it all
	c    io.Closer // the run file; nil for a fetched segment
	file string
	left int    // records not yet returned
	rest int64  // bytes of the segment not yet read from r
	buf  []byte // undecoded tail of the current chunk
	key  string
}

// openSpillCursor positions a streaming reader over one segment of a
// run file on the store. Returns nil for an empty segment.
func openSpillCursor(store Store, file string, seg mrpc.SegRef, node string) (*spillCursor, error) {
	if seg.Records == 0 {
		return nil, nil
	}
	r, err := store.Open(file, node)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: open spill %s: %w", file, err)
	}
	return &spillCursor{
		r: io.NewSectionReader(r, seg.Off, seg.Len), c: r,
		file: file, left: seg.Records, rest: seg.Len,
	}, nil
}

func (c *spillCursor) next() (string, []byte, bool, error) {
	if c.left == 0 {
		return "", nil, false, nil
	}
	for {
		need := len(c.buf) + 1
		kl, n1 := binary.Uvarint(c.buf)
		vl, n2 := binary.Uvarint(c.buf[max(n1, 0):])
		// Off the wire or a DFS block: a length the segment cannot still
		// hold is corruption, caught before arithmetic overflows on it.
		if left := uint64(len(c.buf)) + uint64(c.rest); n1 < 0 || n2 < 0 || n1 > 0 && n2 > 0 && (kl > left || vl > left-kl) {
			return "", nil, false, fmt.Errorf("mapreduce: spill segment %s: corrupt record lengths", c.file)
		}
		if n1 > 0 && n2 > 0 {
			k, end := n1+n2, n1+n2+int(kl)+int(vl)
			if end <= len(c.buf) {
				if string(c.buf[k:k+int(kl)]) != c.key {
					c.key = string(c.buf[k : k+int(kl)])
				}
				val := c.buf[k+int(kl) : end : end]
				c.buf = c.buf[end:]
				c.left--
				return c.key, val, true, nil
			}
			need = end
		}
		if err := c.fill(need); err != nil {
			return "", nil, false, fmt.Errorf("mapreduce: spill segment %s: %w", c.file, err)
		}
	}
}

// fill starts a new chunk: the undecoded tail, then enough of the
// segment to hold need bytes and at least spillReadBuf more of it.
func (c *spillCursor) fill(need int) error {
	n := min(c.rest, int64(max(spillReadBuf, need-len(c.buf))))
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	chunk := make([]byte, len(c.buf)+int(n))
	copy(chunk, c.buf)
	if _, err := io.ReadFull(c.r, chunk[len(c.buf):]); err != nil {
		return err
	}
	c.buf, c.rest = chunk, c.rest-n
	return nil
}

func (c *spillCursor) close() {
	if c.c != nil {
		_ = c.c.Close()
	}
}
