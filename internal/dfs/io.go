package dfs

import (
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/units"
)

// Create opens a new file for writing. clientHint names the datanode
// the writer runs on (first replicas land there, as in HDFS); it may
// be empty for off-cluster writers. The writer is not safe for
// concurrent use; the cluster is.
func (c *Cluster) Create(name, clientHint string) (*FileWriter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	c.nextID++
	f := &fileEntry{name: name, id: c.nextID, modTime: c.clock()}
	c.files[name] = f
	return &FileWriter{
		c:    c,
		f:    f,
		hint: clientHint,
		buf:  c.pool.get(0),
	}, nil
}

// FileWriter streams data into block-sized chunks and commits each
// block to its replica set. Its block buffer comes from the cluster
// buffer pool and goes back on Close.
type FileWriter struct {
	c      *Cluster
	f      *fileEntry
	hint   string
	buf    []byte
	closed bool
	err    error
}

var _ io.WriteCloser = (*FileWriter)(nil)

// Write buffers p, flushing a block every time BlockSize accumulates.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs: write to closed writer for %q", w.f.name)
	}
	if w.err != nil {
		return 0, w.err
	}
	total := 0
	bs := int(w.c.cfg.BlockSize)
	for len(p) > 0 {
		room := bs - len(w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		if len(w.buf) == bs {
			if err := w.flushBlock(); err != nil {
				w.err = err
				return total, err
			}
		}
	}
	return total, nil
}

// placeAttempts bounds how often flushBlock places one block: each
// attempt after the first means a node died inside the last one's
// window, and a cluster losing nodes that fast fails the write instead.
const placeAttempts = 5

// flushBlock commits the buffered bytes as one block: the CRC-32C is
// computed once here on the writer side, then the block fans out to
// every replica concurrently (the HDFS write pipeline), bounded
// cluster-wide by repSem.
//
// The block is listed only if every node that took its put still holds
// it when the namenode lock is taken to list it. The puts run outside
// that lock, and a node killed between its put and the listing is not
// stripped by KillNode, nor its copy restored (the block is not listed
// yet); a revive then wipes it, and listing it would name a replica
// that is gone. So if one of them died, the surviving copies — unlisted,
// so no reader holds them — are dropped and the block is placed again.
func (w *FileWriter) flushBlock() error {
	if len(w.buf) == 0 {
		return nil
	}
	sz := units.Bytes(len(w.buf))
	sum := crc32.Checksum(w.buf, crcTable)

	for attempt := 1; ; attempt++ {
		w.c.mu.Lock()
		id := BlockID{File: w.f.id, Index: len(w.f.blocks)}
		replicas := w.c.choosePlacement(w.hint, sz)
		w.c.mu.Unlock()

		if len(replicas) == 0 {
			return fmt.Errorf("%w: block %s (%s)", ErrNoSpace, id, sz)
		}
		ok := make([]bool, len(replicas))
		var wg sync.WaitGroup
		for i, nodeID := range replicas {
			dn, found := w.c.Node(nodeID)
			if !found {
				continue
			}
			wg.Add(1)
			go func(i int, dn *DataNode) {
				defer wg.Done()
				w.c.repSem <- struct{}{}
				defer func() { <-w.c.repSem }()
				// Under-replicate rather than fail, like HDFS.
				ok[i] = dn.putBlock(id, w.buf, sum) == nil
			}(i, dn)
		}
		wg.Wait()
		if w.c.afterBlockPut != nil {
			w.c.afterBlockPut(id)
		}

		w.c.mu.Lock()
		stored := make([]string, 0, len(replicas))
		lost := false
		for i, nodeID := range replicas {
			switch {
			case !ok[i]:
			case w.c.nodes[nodeID].holds(id):
				stored = append(stored, nodeID) // preserves placement order
			default:
				lost = true
			}
		}
		if !lost && len(stored) > 0 {
			w.f.blocks = append(w.f.blocks, &blockMeta{id: id, size: sz, replicas: stored})
			w.f.size += sz
			w.c.mu.Unlock()
			w.c.bytesWrit.Add(int64(sz) * int64(len(stored)))
			w.buf = w.buf[:0]
			return nil
		}
		w.c.mu.Unlock()
		if !lost {
			return fmt.Errorf("%w: block %s: all replicas failed", ErrNoSpace, id)
		}
		if attempt == placeAttempts {
			return fmt.Errorf("%w: block %s: a replica node died before the block was listed, %d times", ErrDeadNode, id, attempt)
		}
		for _, nodeID := range stored {
			if dn, found := w.c.Node(nodeID); found {
				dn.dropBlock(id)
			}
		}
	}
}

// Close flushes the trailing partial block and marks the file
// complete. A file is readable only after Close; a failed flush is
// recorded and returned by every subsequent Close.
func (w *FileWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		w.err = w.flushBlock()
	}
	w.c.pool.put(w.buf)
	w.buf = nil
	if w.err != nil {
		return w.err
	}
	w.c.mu.Lock()
	w.f.complete = true
	w.f.modTime = w.c.clock()
	w.c.mu.Unlock()
	return nil
}

// Open returns a reader over a complete file. clientHint names the
// reading node; replicas local to it are preferred (short-circuit
// reads), which is what makes MapReduce locality worth scheduling for.
func (c *Cluster) Open(name, clientHint string) (*FileReader, error) {
	c.mu.RLock()
	f, ok := c.files[name]
	if !ok {
		c.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if !f.complete {
		c.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrIncomplete, name)
	}
	// Snapshot every block's geometry and resolve its replica nodes
	// while holding the namenode lock once — readers then work from
	// their own copy (blockMeta.replicas keeps mutating under c.mu as
	// scrub/repair/balancer run) and resolve nodes without re-locking.
	refs := make([]blockRef, len(f.blocks))
	offs := make([]int64, len(f.blocks)+1)
	for i, b := range f.blocks {
		refs[i] = blockRef{meta: b, id: b.id, size: b.size, replicas: c.resolveLocked(b)}
		offs[i+1] = offs[i] + int64(b.size)
	}
	size := f.size
	c.mu.RUnlock()
	return &FileReader{c: c, name: name, refs: refs, offs: offs, size: size, hint: clientHint}, nil
}

// blockRef is a reader's private view of one block: geometry plus a
// snapshot of the replica set resolved to node handles. meta points
// into the shared namespace and is touched only under c.mu (the
// refresh path).
type blockRef struct {
	meta     *blockMeta
	id       BlockID
	size     units.Bytes
	replicas []*DataNode
}

// resolveLocked maps a block's current replica IDs to node handles.
// Callers hold c.mu (read or write).
func (c *Cluster) resolveLocked(b *blockMeta) []*DataNode {
	out := make([]*DataNode, 0, len(b.replicas))
	for _, id := range b.replicas {
		if dn, ok := c.nodes[id]; ok {
			out = append(out, dn)
		}
	}
	return out
}

// readerCacheSlots is how many fetched blocks a FileReader retains.
// Two would cover a record reader straddling one split boundary; four
// absorbs backward seeks across a few blocks without refetching.
const readerCacheSlots = 4

// blockCache holds the last few fetched blocks keyed by block index,
// evicting FIFO. Slot indexes are stored +1 so the zero value is
// empty.
type blockCache struct {
	idx  [readerCacheSlots]int
	data [readerCacheSlots][]byte
	next int
}

func (bc *blockCache) get(i int) ([]byte, bool) {
	for s, ix := range bc.idx {
		if ix == i+1 {
			return bc.data[s], true
		}
	}
	return nil, false
}

func (bc *blockCache) put(i int, d []byte) {
	bc.idx[bc.next] = i + 1
	bc.data[bc.next] = d
	bc.next = (bc.next + 1) % readerCacheSlots
}

// FileReader reads a file sequentially; ReadAt-style section reads are
// provided for record readers that start mid-file. It is not safe for
// concurrent use; open one per task.
type FileReader struct {
	c    *Cluster
	name string
	refs []blockRef
	offs []int64 // cumulative block offsets, len(refs)+1 entries
	size units.Bytes
	hint string

	pos   int64
	cache blockCache
}

var _ io.ReadCloser = (*FileReader)(nil)
var _ io.ReaderAt = (*FileReader)(nil)
var _ io.WriterTo = (*FileReader)(nil)

// Size returns the file length.
func (r *FileReader) Size() units.Bytes { return r.size }

// Read implements io.Reader.
func (r *FileReader) Read(p []byte) (int, error) {
	if r.pos >= int64(r.size) {
		return 0, io.EOF
	}
	n, err := r.ReadAt(p, r.pos)
	r.pos += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

// Seek implements io.Seeker for whence = io.SeekStart/Current/End.
func (r *FileReader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = int64(r.size) + offset
	default:
		return 0, fmt.Errorf("dfs: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("dfs: negative seek %d", abs)
	}
	r.pos = abs
	return abs, nil
}

// ReadAt implements io.ReaderAt across block boundaries.
func (r *FileReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("dfs: negative read offset %d", off)
	}
	if off >= int64(r.size) {
		return 0, io.EOF
	}
	total := 0
	for total < len(p) && off < int64(r.size) {
		data, base, err := r.blockFor(off)
		if err != nil {
			return total, err
		}
		n := copy(p[total:], data[off-base:])
		total += n
		off += int64(n)
	}
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// WriteTo implements io.WriterTo, streaming the bytes from the
// current position block by block with no intermediate copy loop.
// io.Copy picks this up, so checksum audits and cross-mount copies in
// the access layer run at block granularity.
func (r *FileReader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for r.pos < int64(r.size) {
		data, base, err := r.blockFor(r.pos)
		if err != nil {
			return total, err
		}
		chunk := data[r.pos-base:]
		n, err := w.Write(chunk)
		total += int64(n)
		r.pos += int64(n)
		if err == nil && n < len(chunk) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// blockFor returns the data and base file offset of the block
// containing off, consulting the reader's block cache first. The
// block index is found by binary search over the cumulative offsets —
// O(log blocks), where the pre-index reader walked the block list.
func (r *FileReader) blockFor(off int64) ([]byte, int64, error) {
	i := sort.Search(len(r.refs), func(i int) bool { return r.offs[i+1] > off })
	if i >= len(r.refs) {
		return nil, 0, io.EOF
	}
	if data, ok := r.cache.get(i); ok {
		return data, r.offs[i], nil
	}
	data, err := r.fetch(&r.refs[i])
	if err != nil {
		return nil, 0, err
	}
	r.cache.put(i, data)
	return data, r.offs[i], nil
}

// fetch reads one block from the best replica: the hint node when it
// holds one (a local read), otherwise the first live replica, using
// the node handles snapshotted at Open — metrics are atomics, so the
// steady-state read path takes no namenode lock. If every snapshot
// replica fails (nodes died, the balancer or scrubber moved the block
// since Open), the replica set is refreshed from the namenode — the
// one lock touch — and tried once more, the way an HDFS client
// re-fetches block locations.
func (r *FileReader) fetch(ref *blockRef) ([]byte, error) {
	data, err := r.tryReplicas(ref)
	if err == nil {
		return data, nil
	}
	r.c.mu.RLock()
	ref.replicas = r.c.resolveLocked(ref.meta)
	r.c.mu.RUnlock()
	if data, err2 := r.tryReplicas(ref); err2 == nil {
		return data, nil
	}
	return nil, err
}

// tryReplicas attempts the snapshot replica set, hint-local first.
func (r *FileReader) tryReplicas(ref *blockRef) ([]byte, error) {
	var lastErr error
	try := func(dn *DataNode) ([]byte, bool) {
		data, _, err := dn.getBlock(ref.id)
		if err != nil {
			lastErr = err
			return nil, false
		}
		if dn.ID == r.hint {
			r.c.localReads.Add(1)
		} else {
			r.c.remoteReads.Add(1)
		}
		r.c.bytesRead.Add(int64(ref.size))
		return data, true
	}
	// Local replica first.
	for _, dn := range ref.replicas {
		if dn.ID == r.hint {
			if data, ok := try(dn); ok {
				return data, nil
			}
		}
	}
	for _, dn := range ref.replicas {
		if dn.ID != r.hint {
			if data, ok := try(dn); ok {
				return data, nil
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dfs: block %s has no replicas", ref.id)
	}
	return nil, lastErr
}

// Close releases the reader (no-op; present for io.ReadCloser).
func (r *FileReader) Close() error { return nil }

// WriteFile is a convenience that writes data as one file.
func (c *Cluster) WriteFile(name, clientHint string, data []byte) error {
	w, err := c.Create(name, clientHint)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close() // release the pooled buffer; the write error wins
		return err
	}
	return w.Close()
}

// ReadFile is a convenience that returns a file's full contents. The
// result buffer is sized exactly from the namespace entry, avoiding
// io.ReadAll's grow-and-copy loop.
func (c *Cluster) ReadFile(name, clientHint string) ([]byte, error) {
	r, err := c.Open(name, clientHint)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, int(r.Size()))
	if len(buf) == 0 {
		return buf, nil
	}
	n, err := r.ReadAt(buf, 0)
	if err == io.EOF && n == len(buf) {
		err = nil
	}
	return buf[:n], err
}
