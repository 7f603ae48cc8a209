package readcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/replication"
	"repro/internal/units"
)

// patternFS is a site backend whose objects are generated, not stored:
// Create swallows what is written and remembers only its length, Open
// serves pattern bytes through a seeking reader that counts what is
// read. A 64 MiB object costs no memory, and the hash the federation
// takes of what was written matches what is read back.
type patternFS struct {
	adal.Backend // a MemFS holding nothing: supplies Name, List, Remove
	sizes        map[string]int64
	opens, read  atomic.Int64
}

func patternAt(pos int64) byte { return byte(pos) ^ byte(pos>>8) ^ byte(pos>>17) }

func patternBytes(off, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = patternAt(off + int64(i))
	}
	return b
}

type patternWriter struct {
	fs   *patternFS
	path string
	n    int64
}

func (w *patternWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }
func (w *patternWriter) Close() error                { w.fs.sizes[w.path] = w.n; return nil }

func (f *patternFS) Create(path string) (io.WriteCloser, error) {
	return &patternWriter{fs: f, path: path}, nil
}

func (f *patternFS) Stat(path string) (adal.FileInfo, error) {
	size, ok := f.sizes[path]
	if !ok {
		return adal.FileInfo{}, adal.ErrNotFound
	}
	return adal.FileInfo{Path: path, Size: units.Bytes(size)}, nil
}

func (f *patternFS) Open(path string) (io.ReadCloser, error) {
	size, ok := f.sizes[path]
	if !ok {
		return nil, adal.ErrNotFound
	}
	f.opens.Add(1)
	return &patternReader{fs: f, size: size}, nil
}

type patternReader struct {
	fs        *patternFS
	pos, size int64
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.pos >= r.size {
		return 0, io.EOF
	}
	n := int(min(int64(len(p)), r.size-r.pos))
	for i := range p[:n] {
		p[i] = patternAt(r.pos + int64(i))
	}
	r.pos += int64(n)
	r.fs.read.Add(int64(n))
	return n, nil
}

func (r *patternReader) Seek(off int64, whence int) (int64, error) {
	if whence != io.SeekCurrent {
		return 0, errors.New("patternReader: only relative seeks")
	}
	r.pos += off
	return r.pos, nil
}

func (r *patternReader) Close() error { return nil }

// patternFed is a one-site federation over a patternFS holding one
// object of the given size, with a cache in front.
func patternFed(t testing.TB, size int64, cfg Config) (*Cache, *patternFS) {
	t.Helper()
	site := &patternFS{Backend: adal.NewMemFS("site"), sizes: make(map[string]int64)}
	cat := replication.NewCatalog(replication.CatalogConfig{})
	eng, err := replication.NewEngine(replication.Config{
		Catalog: cat, Sites: []*replication.Site{replication.NewSite("site", site, 0)}, MinReplicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	fb := replication.NewFederated("fed", eng)
	w, err := fb.Create("/vol")
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < size; off += 1 << 20 {
		if _, err := w.Write(patternBytes(off, min(1<<20, size-off))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c := New(fb, cfg)
	t.Cleanup(c.Close)
	return c, site
}

// TestRangeMissFetchesOnlyItsBlocks: a miss on the last 64 KiB of a
// 64 MiB object reads at most that plus two blocks from the site — not
// the object, and not the 64 MiB before the offset — in one stream;
// the span, not the object, is what the admission gate sizes; and the
// same read again is a hit that reads nothing.
func TestRangeMissFetchesOnlyItsBlocks(t *testing.T) {
	const size, tail = 64 << 20, 64 << 10
	c, site := patternFed(t, size, Config{Memory: 8 * units.MiB})
	for round, wantStats := range []Stats{{Misses: 1, Fills: 1, FillBytes: blockSize}, {Misses: 1, Fills: 1, FillBytes: blockSize, MemHits: 1}} {
		opens, read := site.opens.Load(), site.read.Load()
		if got := readRange(t, c, "/vol", size-tail, tail); !bytes.Equal(got, patternBytes(size-tail, tail)) {
			t.Fatalf("round %d: wrong bytes", round)
		}
		opens, read = site.opens.Load()-opens, site.read.Load()-read
		st := c.Stats()
		if st.Misses != wantStats.Misses || st.MemHits != wantStats.MemHits || st.Fills != wantStats.Fills || st.FillBytes != wantStats.FillBytes || st.Bypasses != 0 || st.FillErrors != 0 {
			t.Fatalf("round %d: stats %+v", round, st)
		}
		if round == 0 && (opens != 1 || read > tail+2*blockSize) {
			t.Fatalf("miss: %d site opens reading %d bytes, want 1 open and at most %d", opens, read, tail+2*blockSize)
		}
		if round == 1 && (opens != 0 || read != 0) {
			t.Fatalf("hit: %d site opens reading %d bytes, want none", opens, read)
		}
	}
	// Two runs of missing blocks around a cached one: two streams, and
	// only the missing blocks' bytes.
	readRange(t, c, "/vol", 5*blockSize, blockSize)
	opens, read := site.opens.Load(), site.read.Load()
	if got := readRange(t, c, "/vol", 4*blockSize+7, 2*blockSize); !bytes.Equal(got, patternBytes(4*blockSize+7, 2*blockSize)) {
		t.Fatal("wrong bytes around a cached block")
	}
	if opens, read = site.opens.Load()-opens, site.read.Load()-read; opens != 2 || read != 2*blockSize {
		t.Fatalf("two missing runs: %d site opens reading %d bytes, want 2 and %d", opens, read, 2*blockSize)
	}
	for _, e := range c.Entries() {
		if !e.Verified {
			t.Fatalf("blocks of %s cached unverified", e.Path)
		}
	}
	// A span the gate refuses streams through — from its offset.
	read = site.read.Load()
	if got := readRange(t, c, "/vol", size-3<<20, -1); len(got) != 3<<20 {
		t.Fatalf("bypass read %d bytes", len(got))
	}
	if st := c.Stats(); st.Bypasses != 1 || site.read.Load()-read != 3<<20 {
		t.Fatalf("inadmissible span: %d bypasses, %d site bytes", st.Bypasses, site.read.Load()-read)
	}
}

func cachedBlocks(c *Cache, path string, nb int64) (mem, disk []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for j := int64(0); j < nb; j++ {
		if c.mem.get(path, j) != nil {
			mem = append(mem, j)
		}
		if c.disk.get(path, j) != nil {
			disk = append(disk, j)
		}
	}
	return mem, disk
}

// TestCorruptBlockIsServedNeverAdmitted: when the nearest site's copy
// is corrupt in block k, a read through the cache returns what a
// direct read returns, the failed check is counted, block k is in
// neither tier — and every other block of the object is.
func TestCorruptBlockIsServedNeverAdmitted(t *testing.T) {
	c, fb, eng, sites, _ := testFedCache(t, Config{
		Memory: 8 * units.MiB, Disk: adal.NewMemFS("cachedisk"), DiskBudget: 8 * units.MiB,
	})
	const nb, k = 6, 4
	data := make([]byte, nb*blockSize-100)
	for i := range data {
		data[i] = byte(i>>3) ^ byte(i>>11)
	}
	fedWrite(t, fb, "/exp/vol", data)
	eng.Wait()
	bad := bytes.Clone(data)
	bad[k*blockSize+5] ^= 0x80
	if err := sites[0].Backend.Remove("/exp/vol"); err != nil {
		t.Fatal(err)
	}
	writeBackend(t, sites[0].Backend, "/exp/vol", bad)

	for round := 1; round <= 2; round++ {
		direct := readRange(t, fb, "/exp/vol", 0, -1)
		if !bytes.Equal(direct, bad) {
			t.Fatal("direct read is not served by the corrupted nearest site")
		}
		if got := readRange(t, c, "/exp/vol", 0, -1); !bytes.Equal(got, direct) {
			t.Fatalf("round %d: cached read differs from the direct read", round)
		}
		mem, disk := cachedBlocks(c, "/exp/vol", nb)
		want := []int64{0, 1, 2, 3, 5}
		if fmt.Sprint(mem) != fmt.Sprint(want) || fmt.Sprint(disk) != fmt.Sprint(want) {
			t.Fatalf("round %d: cached blocks mem %v disk %v, want %v in both", round, mem, disk, want)
		}
		if st := c.Stats(); st.FillErrors != uint64(round) || st.FillBytes != uint64(len(data)+(round-1)*blockSize) {
			t.Fatalf("round %d: %d fill errors, %d fill bytes", round, st.FillErrors, st.FillBytes)
		}
	}
	if infos, _ := c.cfg.Disk.List("/"); len(infos) != nb-1 {
		t.Fatalf("disk tier holds %d block files, want %d", len(infos), nb-1)
	}
}

// cancelAfter is a federated backend whose ranged streams cancel a
// context once they have delivered a number of bytes.
type cancelAfter struct {
	*replication.FederatedBackend
	after  int64
	cancel context.CancelFunc
}

func (b *cancelAfter) OpenRange(ctx context.Context, path string, off, n int64) (io.ReadCloser, error) {
	r, err := b.FederatedBackend.OpenRange(ctx, path, off, n)
	if err != nil {
		return nil, err
	}
	return &cancellingReader{ReadCloser: r, b: b}, nil
}

type cancellingReader struct {
	io.ReadCloser
	b    *cancelAfter
	seen int64
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	if r.seen += int64(n); r.seen >= r.b.after && r.b.cancel != nil {
		r.b.cancel()
	}
	return n, err
}

// TestCancelledFillKeepsOnlyVerifiedBlocks: the request's context
// reaches the fill. Cancelled after the first of eight blocks, the
// fill stops fetching, the block it had verified stays cached, nothing
// short or unchecked is inserted, and the next read is byte-correct
// and fetches only the other seven.
func TestCancelledFillKeepsOnlyVerifiedBlocks(t *testing.T) {
	_, fb, eng, _, _ := testFedCache(t, Config{})
	data := make([]byte, 8*blockSize)
	for i := range data {
		data[i] = byte(i>>2) ^ byte(i>>13)
	}
	fedWrite(t, fb, "/exp/vol", data)
	eng.Wait()
	ctx, cancel := context.WithCancel(context.Background())
	inner := &cancelAfter{FederatedBackend: fb, after: blockSize, cancel: cancel}
	c := New(inner, Config{Memory: 16 * units.MiB})
	defer c.Close()

	if _, err := c.OpenRange(ctx, "/exp/vol", 0, -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("open under a cancelled request: %v, want context.Canceled", err)
	}
	mem, _ := cachedBlocks(c, "/exp/vol", 8)
	if st := c.Stats(); fmt.Sprint(mem) != "[0]" || st.FillBytes != blockSize || st.MemUsed != blockSize {
		t.Fatalf("after the cancelled fill: blocks %v cached, %d bytes fetched, %d held; want block 0 alone", mem, st.FillBytes, st.MemUsed)
	}
	inner.cancel = nil
	if got := readRange(t, c, "/exp/vol", 0, -1); !bytes.Equal(got, data) {
		t.Fatal("read after the cancelled fill is not the object")
	}
	if st := c.Stats(); st.FillBytes != 8*blockSize || st.FillErrors != 0 {
		t.Fatalf("the next read fetched %d bytes in all (want %d: block 0 was kept), %d fill errors", st.FillBytes, 8*blockSize, st.FillErrors)
	}
	for _, e := range c.Entries() {
		if !e.Verified || e.Size != 8*blockSize {
			t.Fatalf("entry %+v, want 8 verified blocks", e)
		}
	}
}

// TestCancelledLeaderDoesNotFailItsWaiters: a reader coalesced onto a
// fill whose own request is then cancelled does not inherit that
// cancellation — it fetches for itself.
func TestCancelledLeaderDoesNotFailItsWaiters(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	path, data := obj(3, 4096)
	writeBackend(t, inner, path, data)
	c := New(inner, Config{Memory: 64 * units.KiB})
	defer c.Close()

	gate := make(chan struct{})
	inner.setGate(gate)
	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.OpenRange(ctx, path, 0, -1)
		leaderErr <- err
	}()
	for inner.opens.Load() == 0 { // the leader is inside the gated inner Open
		runtime.Gosched()
	}
	got := make(chan []byte, 1)
	go func() { got <- readCache(t, c, path) }()
	for c.dedups.Load() == 0 { // the waiter is on the leader's op
		runtime.Gosched()
	}
	cancel()
	inner.setGate(nil)
	close(gate)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	if !bytes.Equal(<-got, data) {
		t.Fatal("waiter read the wrong bytes")
	}
}

// chainlessBackend reports digests without a checkpoint chain, as a
// catalog record written by `lsdfctl replica add` does.
type chainlessBackend struct {
	countingBackend
	digests map[string]adal.Digest
}

func (b *chainlessBackend) ObjectDigest(rel string) (adal.Digest, bool) {
	d, ok := b.digests[rel]
	return d, ok
}

// TestDigestWithoutChainIsReadWholeOnceAndDerived: a miss on an object
// whose record has a digest but no chain reads the object whole, checks
// the digest and derives the chain in that pass — every block is then
// cached verified, and a later miss fetches and verifies one block. A
// whole read that does not hash to the digest admits nothing. An
// object too large to admit whole is cached as unverified blocks, and
// an object with no digest at all likewise; unverified blocks go on
// the first stale event, verified ones stay.
func TestDigestWithoutChainIsReadWholeOnceAndDerived(t *testing.T) {
	meta := metadata.NewStore()
	inner := &chainlessBackend{countingBackend: countingBackend{Backend: adal.NewMemFS("inner")}, digests: map[string]adal.Digest{}}
	put := func(path string, size int, withSum bool) []byte {
		data := bytes.Repeat([]byte(path), size/len(path)+1)[:size]
		writeBackend(t, inner, path, data)
		if withSum {
			inner.digests[path] = adal.Digest{Size: units.Bytes(size), Sum: sumOf(data)}
		}
		return data
	}
	good := put("/d/good", 4*blockSize+9, true)
	put("/d/wrong", 3*blockSize, true)
	inner.digests["/d/wrong"] = adal.Digest{Size: 3 * blockSize, Sum: sumOf([]byte("something else"))}
	huge := put("/d/huge", 9*blockSize, true)
	put("/d/nosum", 2*blockSize, false)
	c := New(inner, Config{Memory: 8 * units.MiB, Meta: meta, MountPrefix: "/sites"}) // admits 2 MiB: 8 blocks
	defer c.Close()

	if got := readRange(t, c, "/d/good", 3*blockSize, 10); !bytes.Equal(got, good[3*blockSize:3*blockSize+10]) {
		t.Fatal("wrong bytes")
	}
	st := c.Stats()
	if mem, _ := cachedBlocks(c, "/d/good", 5); len(mem) != 5 || st.Fills != 1 || st.FillBytes != uint64(len(good)) {
		t.Fatalf("first miss: blocks %v cached from %d stream(s) of %d bytes, want all 5 from one whole read", mem, st.Fills, st.FillBytes)
	}
	c.mu.Lock()
	c.mem.removeEntry(c.mem.get("/d/good", 1))
	c.mu.Unlock()
	if got := readRange(t, c, "/d/good", 0, -1); !bytes.Equal(got, good) {
		t.Fatal("wrong bytes after losing a block")
	}
	if st := c.Stats(); st.FillBytes != uint64(len(good))+blockSize {
		t.Fatalf("refetching one block read %d bytes; the derived chain should make it %d", st.FillBytes-uint64(len(good)), blockSize)
	}

	readRange(t, c, "/d/wrong", 0, 100)
	if mem, _ := cachedBlocks(c, "/d/wrong", 3); len(mem) != 0 || c.Stats().FillErrors != 1 {
		t.Fatalf("object not hashing to its digest: blocks %v cached, %d fill errors", mem, c.Stats().FillErrors)
	}
	if got := readRange(t, c, "/d/huge", blockSize+1, blockSize); !bytes.Equal(got, huge[blockSize+1:2*blockSize+1]) {
		t.Fatal("wrong bytes from the huge object")
	}
	readRange(t, c, "/d/nosum", 0, -1)
	verified := map[string]bool{}
	for _, e := range c.Entries() {
		verified[e.Path] = e.Verified
	}
	if fmt.Sprint(verified) != "map[/d/good:true /d/huge:false /d/nosum:false]" {
		t.Fatalf("verified flags %v", verified)
	}
	for p := range verified {
		meta.NoteReplica("/sites"+p, "kit", "stale")
	}
	if got := c.Entries(); len(got) != 1 || got[0].Path != "/d/good" {
		t.Fatalf("after stale events: %+v, want only the verified object", got)
	}
}

// TestNegativeQueueStaysBounded: a client polling rotating absent
// paths records and expires the same few paths for ever; the FIFO of
// recordings must not grow with it.
func TestNegativeQueueStaysBounded(t *testing.T) {
	const entries = 32
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	c := New(inner, Config{Memory: 64 * units.KiB, NegTTL: time.Second, NegEntries: entries})
	defer c.Close()
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return now }
	for i := 0; i < 10*entries; i++ {
		for p := 0; p < 64; p++ {
			if _, err := c.Open(fmt.Sprintf("/absent/%02d", p)); !errors.Is(err, adal.ErrNotFound) {
				t.Fatal(err)
			}
		}
		now = now.Add(2 * time.Second) // everything recorded has expired
		c.mu.Lock()
		q, live := len(c.negQ), len(c.neg)
		c.mu.Unlock()
		if q > entries || live > entries {
			t.Fatalf("cycle %d: %d recordings queued for %d live entries, bound is %d", i, q, live, entries)
		}
	}
	if c.Stats().NegHits != 0 {
		t.Fatal("expired entries answered lookups")
	}
	// Within the TTL the newest NegEntries recordings answer locally.
	opens := inner.opens.Load()
	for p := 64 - entries; p < 64; p++ {
		c.Open(fmt.Sprintf("/absent/%02d", p))
	}
	for p := 64 - entries; p < 64; p++ {
		c.Open(fmt.Sprintf("/absent/%02d", p))
	}
	if got := inner.opens.Load() - opens; got != entries || c.Stats().NegHits != entries {
		t.Fatalf("%d inner opens and %d negative hits for %d paths looked up twice", got, c.Stats().NegHits, entries)
	}
}
