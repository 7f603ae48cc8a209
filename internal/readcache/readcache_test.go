package readcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

func sumOf(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// countingBackend wraps a backend and counts Opens and bytes read —
// the test's stand-in for "WAN transfers".
type countingBackend struct {
	adal.Backend
	opens     atomic.Int64
	bytesRead atomic.Int64

	mu   sync.Mutex
	gate chan struct{} // when set, Open blocks until the channel closes
}

func (b *countingBackend) Open(path string) (io.ReadCloser, error) {
	b.opens.Add(1)
	b.mu.Lock()
	gate := b.gate
	b.mu.Unlock()
	if gate != nil {
		<-gate
	}
	r, err := b.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	return &countingReader{r: r, n: &b.bytesRead}, nil
}

func (b *countingBackend) setGate(gate chan struct{}) {
	b.mu.Lock()
	b.gate = gate
	b.mu.Unlock()
}

type countingReader struct {
	r io.ReadCloser
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

func writeBackend(t *testing.T, b adal.Backend, path string, data []byte) {
	t.Helper()
	w, err := b.Create(path)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readCache(t *testing.T, c *Cache, path string) []byte {
	t.Helper()
	r, err := c.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

func obj(i int, size int) (string, []byte) {
	path := fmt.Sprintf("/data/obj-%03d", i)
	data := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size/2)
	return path, data
}

// TestReadThroughAndMemHit: the first read fills from the inner
// backend, the second is served from memory without touching it.
func TestReadThroughAndMemHit(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	path, data := obj(1, 4096)
	writeBackend(t, inner, path, data)

	c := New(inner, Config{Memory: 64 * units.KiB})
	defer c.Close()

	if got := readCache(t, c, path); !bytes.Equal(got, data) {
		t.Fatalf("first read: %d bytes, want %d", len(got), len(data))
	}
	if got := readCache(t, c, path); !bytes.Equal(got, data) {
		t.Fatalf("second read mismatch")
	}
	if n := inner.opens.Load(); n != 1 {
		t.Fatalf("inner opens = %d, want 1 (second read must be a cache hit)", n)
	}
	st := c.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v, want 1 mem hit / 1 miss / 1 fill", st)
	}
	if st.FillBytes != 4096 {
		t.Fatalf("fill bytes = %d, want 4096", st.FillBytes)
	}
}

// TestSingleflightFill: N concurrent readers of one cold object cost
// exactly one inner transfer; the rest coalesce onto the fill.
func TestSingleflightFill(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	path, data := obj(2, 8192)
	writeBackend(t, inner, path, data)

	c := New(inner, Config{Memory: 64 * units.KiB})
	defer c.Close()

	gate := make(chan struct{})
	inner.setGate(gate)

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	var started sync.WaitGroup
	started.Add(readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			r, err := c.Open(path)
			if err != nil {
				errs <- err
				return
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errors.New("content mismatch")
			}
		}()
	}
	started.Wait()
	// One leader is blocked inside the gated inner.Open; wait until
	// at least one other reader has coalesced onto its op before
	// releasing the transfer, so the dedup assertion cannot race.
	for c.dedups.Load() == 0 {
		runtime.Gosched()
	}
	inner.setGate(nil)
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := inner.opens.Load(); n != 1 {
		t.Fatalf("inner opens = %d, want 1 (singleflight)", n)
	}
	if st := c.Stats(); st.Dedups == 0 {
		t.Fatalf("dedups = 0, want >0; stats %+v", st)
	}
}

// TestScanResistance: a hot set promoted into the protected segment
// survives a full-budget scan of one-touch objects.
func TestScanResistance(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	const objSize = 1024
	// Budget fits ~16 objects; hot set is 8 (≤ protected fraction).
	c := New(inner, Config{Memory: 16 * 1024, AdmitFraction: 0.1, ProtectedFraction: 0.6})
	defer c.Close()

	var hot []string
	for i := 0; i < 8; i++ {
		path, data := obj(i, objSize)
		writeBackend(t, inner, path, data)
		hot = append(hot, path)
	}
	// Touch twice: fill, then promote to protected.
	for _, p := range hot {
		readCache(t, c, p)
		readCache(t, c, p)
	}
	// Scan 64 cold objects — 4× the budget in one-touch traffic.
	for i := 100; i < 164; i++ {
		path, data := obj(i, objSize)
		writeBackend(t, inner, path, data)
		readCache(t, c, path)
	}
	inner.opens.Store(0)
	for _, p := range hot {
		readCache(t, c, p)
	}
	if n := inner.opens.Load(); n != 0 {
		t.Fatalf("hot set re-read hit the inner backend %d times after a scan; want 0", n)
	}
}

// TestSizeAwareAdmission: an object above the admit threshold of
// both tiers streams straight through and occupies no cache space.
func TestSizeAwareAdmission(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	disk := adal.NewMemFS("cachedisk")
	c := New(inner, Config{
		Memory: 16 * 1024, Disk: disk, DiskBudget: 32 * 1024, AdmitFraction: 0.25,
	})
	defer c.Close()

	big, bigData := obj(9, 16*1024) // > 0.25 of both budgets
	writeBackend(t, inner, big, bigData)
	for i := 0; i < 3; i++ {
		if got := readCache(t, c, big); !bytes.Equal(got, bigData) {
			t.Fatalf("bypass read %d mismatch", i)
		}
	}
	st := c.Stats()
	if st.Bypasses != 3 {
		t.Fatalf("bypasses = %d, want 3", st.Bypasses)
	}
	if st.MemObjects != 0 || st.DiskObjects != 0 {
		t.Fatalf("cache occupied by inadmissible object: %+v", st)
	}
	if n := inner.opens.Load(); n != 3 {
		t.Fatalf("inner opens = %d, want 3 (no caching)", n)
	}
}

// TestDiskTierAndPromotion: an object too big for memory lands on
// disk; when memory would admit it, a disk hit promotes it.
func TestDiskTierAndPromotion(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	disk := adal.NewMemFS("cachedisk")

	// Memory admits ≤ 1 KiB, disk admits ≤ 16 KiB.
	c := New(inner, Config{
		Memory: 4 * 1024, Disk: disk, DiskBudget: 64 * 1024, AdmitFraction: 0.25,
	})
	defer c.Close()

	path, data := obj(3, 8*1024)
	writeBackend(t, inner, path, data)

	readCache(t, c, path) // fill → disk only
	if tier, ok := c.CacheTier(path); !ok || tier != "disk" {
		t.Fatalf("tier = %q/%v, want disk", tier, ok)
	}
	if got := readCache(t, c, path); !bytes.Equal(got, data) {
		t.Fatal("disk hit mismatch")
	}
	st := c.Stats()
	if st.DiskHits != 1 || st.MemObjects != 0 {
		t.Fatalf("stats = %+v, want 1 disk hit and no memory entry", st)
	}
	if n := inner.opens.Load(); n != 1 {
		t.Fatalf("inner opens = %d, want 1", n)
	}

	// A small object promotes from disk to memory on its second read.
	small, smallData := obj(4, 512)
	writeBackend(t, inner, small, smallData)
	readCache(t, c, small)
	c.mu.Lock()
	c.mem.drop(small, true) // strand it on disk only
	c.mu.Unlock()
	readCache(t, c, small) // disk hit → promote
	if tier, _ := c.CacheTier(small); tier != "memory" {
		t.Fatalf("tier after promotion = %q, want memory", tier)
	}
	if got := readCache(t, c, small); !bytes.Equal(got, smallData) {
		t.Fatal("promoted read mismatch")
	}
}

// TestRemoveInvalidates: removing through the cache evicts both
// tiers before any event is delivered.
func TestRemoveInvalidates(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	disk := adal.NewMemFS("cachedisk")
	c := New(inner, Config{Memory: 64 * 1024, Disk: disk, DiskBudget: 64 * 1024})
	defer c.Close()

	path, data := obj(5, 2048)
	writeBackend(t, inner, path, data)
	readCache(t, c, path)
	if _, ok := c.CacheTier(path); !ok {
		t.Fatal("object not cached after read")
	}
	if err := c.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.CacheTier(path); ok {
		t.Fatal("object still cached after Remove")
	}
	if _, err := c.Open(path); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("open after remove = %v, want ErrNotFound", err)
	}
	if infos, _ := disk.List("/"); len(infos) != 0 {
		t.Fatalf("disk tier still holds %d files after Remove", len(infos))
	}
}

// TestBusInvalidation: replica events on the bus evict — "dropped"
// unconditionally, "stale" only unverified entries.
func TestBusInvalidation(t *testing.T) {
	meta := metadata.NewStore()
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	c := New(inner, Config{Memory: 64 * 1024, Meta: meta, MountPrefix: "/sites"})
	defer c.Close()

	path, data := obj(6, 2048)
	writeBackend(t, inner, path, data)
	readCache(t, c, path)
	// MemFS has no checksum reporter, so the entry is unverified: a
	// stale transition must evict it.
	meta.NoteReplica("/sites"+path, "kit", "stale")
	if _, ok := c.CacheTier(path); ok {
		t.Fatal("unverified entry survived a stale event")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// Events outside the mount prefix must not touch the cache.
	readCache(t, c, path)
	meta.NoteReplica("/elsewhere"+path, "kit", "dropped")
	if _, ok := c.CacheTier(path); !ok {
		t.Fatal("event outside the mount prefix evicted the entry")
	}
	// "dropped" under the prefix always evicts.
	meta.NoteReplica("/sites"+path, "kit", "dropped")
	if _, ok := c.CacheTier(path); ok {
		t.Fatal("entry survived a dropped event")
	}
}

// TestStaleKeepsVerifiedEntry: with a checksum reporter on the inner
// backend, fills verify — and verified entries of immutable objects
// ride out stale/lost replica transitions.
func TestStaleKeepsVerifiedEntry(t *testing.T) {
	meta := metadata.NewStore()
	path, data := obj(7, 2048)
	inner := &reportingBackend{
		countingBackend: countingBackend{Backend: adal.NewMemFS("inner")},
		sums:            map[string]string{path: sumOf(data)},
		sizes:           map[string]units.Bytes{path: units.Bytes(len(data))},
	}
	writeBackend(t, &inner.countingBackend, path, data)

	c := New(inner, Config{Memory: 64 * 1024, Meta: meta, MountPrefix: "/sites"})
	defer c.Close()

	readCache(t, c, path)
	meta.NoteReplica("/sites"+path, "kit", "stale")
	meta.NoteReplica("/sites"+path, "kit", "lost")
	if _, ok := c.CacheTier(path); !ok {
		t.Fatal("verified entry evicted by stale/lost events")
	}
	inner.opens.Store(0)
	if got := readCache(t, c, path); !bytes.Equal(got, data) {
		t.Fatal("verified entry mismatch after events")
	}
	if n := inner.opens.Load(); n != 0 {
		t.Fatal("verified entry re-fetched instead of served from cache")
	}
	// A dropped event still wins over verification.
	meta.NoteReplica("/sites"+path, "kit", "dropped")
	if _, ok := c.CacheTier(path); ok {
		t.Fatal("verified entry survived dropped")
	}
}

// reportingBackend adds an ObjectDigest reporter over
// countingBackend, simulating the federated backend's catalog.
type reportingBackend struct {
	countingBackend
	sums  map[string]string
	sizes map[string]units.Bytes
}

func (b *reportingBackend) ObjectDigest(rel string) (adal.Digest, bool) {
	sum, ok := b.sums[rel]
	return adal.Digest{Size: b.sizes[rel], Sum: sum}, ok
}

// TestFillChecksumMismatch: a fill whose bytes don't match the
// recorded hash is served to the reader (a direct read would have
// returned the same stream) but never cached.
func TestFillChecksumMismatch(t *testing.T) {
	path, data := obj(8, 2048)
	inner := &reportingBackend{
		countingBackend: countingBackend{Backend: adal.NewMemFS("inner")},
		sums:            map[string]string{path: "deadbeef"}, // wrong on purpose
		sizes:           map[string]units.Bytes{path: units.Bytes(len(data))},
	}
	writeBackend(t, &inner.countingBackend, path, data)

	disk := adal.NewMemFS("cachedisk")
	c := New(inner, Config{Memory: 64 * 1024, Disk: disk, DiskBudget: 64 * 1024})
	defer c.Close()

	if got := readCache(t, c, path); !bytes.Equal(got, data) {
		t.Fatal("mismatched fill must still serve the transferred bytes")
	}
	if _, ok := c.CacheTier(path); ok {
		t.Fatal("suspect bytes were cached")
	}
	if infos, _ := disk.List("/"); len(infos) != 0 {
		t.Fatal("suspect bytes left on the disk tier")
	}
	if st := c.Stats(); st.FillErrors != 1 {
		t.Fatalf("fill errors = %d, want 1", st.FillErrors)
	}
}

// TestDiskRecovery: a cache built over a disk backend that already
// holds block files serves them without re-crossing the inner backend
// — as unverified blocks, which the first doubt about the object
// evicts — and clears out anything that is not a block file.
func TestDiskRecovery(t *testing.T) {
	meta := metadata.NewStore()
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	disk := adal.NewMemFS("cachedisk")
	path, data := obj(10, 2048)
	big := bytes.Repeat([]byte("recovered"), (blockSize+5000)/9)
	writeBackend(t, inner, path, data)
	writeBackend(t, inner, "/data/big", big)
	// Left over from a prior process: two objects' block files, and a
	// whole-object file from before the tier held blocks.
	writeBackend(t, disk, blockFile(blockKey{path, 0}), data)
	writeBackend(t, disk, blockFile(blockKey{"/data/big", 0}), big[:blockSize])
	writeBackend(t, disk, blockFile(blockKey{"/data/big", 1}), big[blockSize:])
	writeBackend(t, disk, "/data/legacy-whole-object", data)

	c := New(inner, Config{Disk: disk, DiskBudget: 4 * units.MiB, Meta: meta, MountPrefix: "/sites"})
	defer c.Close()

	if tier, ok := c.CacheTier(path); !ok || tier != "disk" {
		t.Fatalf("recovered tier = %q/%v, want disk", tier, ok)
	}
	if got := readCache(t, c, path); !bytes.Equal(got, data) {
		t.Fatal("recovered entry mismatch")
	}
	if got := readCache(t, c, "/data/big"); !bytes.Equal(got, big) {
		t.Fatal("recovered two-block entry mismatch")
	}
	if n := inner.opens.Load(); n != 0 {
		t.Fatalf("recovered entry refilled from inner (%d opens)", n)
	}
	if st := c.Stats(); st.DiskHits != 2 || st.DiskObjects != 2 {
		t.Fatalf("stats = %+v, want 2 disk hits on 2 objects", st)
	}
	if _, err := disk.Stat("/data/legacy-whole-object"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatal("a file that is no block file survived recovery")
	}
	for _, e := range c.Entries() {
		if e.Verified {
			t.Fatalf("recovered blocks of %s are marked verified", e.Path)
		}
	}
	meta.NoteReplica("/sites/data/big", "kit", "stale")
	if _, ok := c.CacheTier("/data/big"); ok {
		t.Fatal("recovered (unverified) blocks survived a stale event")
	}
	if infos, _ := disk.List("/"); len(infos) != 1 {
		t.Fatalf("disk tier holds %d files after the invalidation, want 1", len(infos))
	}
}

// TestEvictAndWarm: the lsdfctl verbs — manual eviction and
// prefix warming.
func TestEvictAndWarm(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	c := New(inner, Config{Memory: 64 * 1024})
	defer c.Close()

	var paths []string
	for i := 20; i < 24; i++ {
		path, data := obj(i, 1024)
		writeBackend(t, inner, path, data)
		paths = append(paths, path)
	}
	n, err := c.Warm("/data")
	if err != nil || n != 4 {
		t.Fatalf("warm = %d, %v; want 4, nil", n, err)
	}
	if len(c.Entries()) != 4 {
		t.Fatalf("entries = %d, want 4", len(c.Entries()))
	}
	inner.opens.Store(0)
	for _, p := range paths {
		readCache(t, c, p)
	}
	if got := inner.opens.Load(); got != 0 {
		t.Fatalf("warmed reads hit inner %d times", got)
	}
	if !c.Evict(paths[0]) {
		t.Fatal("evict reported nothing cached")
	}
	if c.Evict(paths[0]) {
		t.Fatal("second evict reported a hit")
	}
	if _, ok := c.CacheTier(paths[0]); ok {
		t.Fatal("entry still cached after Evict")
	}
}

// TestSegLRUDemotion: the protected segment demotes its tail back to
// probation rather than growing past its cap.
func TestSegLRUDemotion(t *testing.T) {
	s := newSegLRU(1000, 0.5, 1.0)
	for i := 0; i < 10; i++ {
		e := &centry{key: blockKey{path: fmt.Sprintf("/o%d", i)}, size: 100}
		if ev := s.add(e); len(ev) != 0 {
			t.Fatalf("unexpected eviction at %d", i)
		}
	}
	// Promote all ten: protected cap is 500, so at most 5 stay.
	for i := 0; i < 10; i++ {
		s.touch(s.get(fmt.Sprintf("/o%d", i), 0))
	}
	if s.protUsed > s.protCap {
		t.Fatalf("protected %d exceeds cap %d", s.protUsed, s.protCap)
	}
	if s.used != 1000 {
		t.Fatalf("used = %d, want 1000 (demotion must not evict)", s.used)
	}
}

// TestNegativeCaching: a not-found lookup is remembered for the TTL —
// repeats are answered locally — and a create (through the cache or
// as a bus event) re-opens the path before the TTL runs out.
func TestNegativeCaching(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	c := New(inner, Config{Memory: 64 * units.KiB, NegTTL: time.Minute})
	defer c.Close()

	if _, err := c.Open("/data/ghost"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("first open: %v, want not-found", err)
	}
	opens := inner.opens.Load()
	for i := 0; i < 3; i++ {
		if _, err := c.Open("/data/ghost"); !errors.Is(err, adal.ErrNotFound) {
			t.Fatalf("cached open: %v, want not-found", err)
		}
		if _, err := c.Stat("/data/ghost"); !errors.Is(err, adal.ErrNotFound) {
			t.Fatalf("cached stat: %v, want not-found", err)
		}
	}
	if n := inner.opens.Load(); n != opens {
		t.Fatalf("negative hits re-opened inner: %d opens, want %d", n, opens)
	}
	if st := c.Stats(); st.NegHits != 6 || st.NegObjects != 1 {
		t.Fatalf("NegHits=%d NegObjects=%d, want 6 and 1", st.NegHits, st.NegObjects)
	}

	// Creating through the cache forgets the absence immediately.
	w, err := c.Create("/data/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("now real")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readCache(t, c, "/data/ghost"); string(got) != "now real" {
		t.Fatalf("post-create read: %q", got)
	}
}

// TestNegativeCachingBusInvalidation: a created event on the metadata
// bus (an ingest at another site) clears the cached absence.
func TestNegativeCachingBusInvalidation(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	meta := metadata.NewStore()
	c := New(inner, Config{Memory: 64 * units.KiB, NegTTL: time.Minute, Meta: meta, MountPrefix: "/sites"})
	defer c.Close()

	if _, err := c.Open("/data/late"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("open: %v, want not-found", err)
	}
	if _, err := c.Open("/data/late"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("open: %v, want not-found", err)
	}
	if st := c.Stats(); st.NegHits != 1 {
		t.Fatalf("NegHits=%d, want 1", st.NegHits)
	}

	// The object lands at a remote site; its registration event rides
	// the bus and must clear the negative entry.
	writeBackend(t, inner, "/data/late", []byte("arrived"))
	if _, err := meta.Create("proj", "/sites/data/late", 7, sumOf([]byte("arrived")), nil); err != nil {
		t.Fatal(err)
	}
	if got := readCache(t, c, "/data/late"); string(got) != "arrived" {
		t.Fatalf("post-event read: %q", got)
	}
}

// TestNegativeCachingTTLAndBound: entries expire after the TTL, and
// the set is FIFO-bounded by NegEntries.
func TestNegativeCachingTTLAndBound(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	c := New(inner, Config{Memory: 64 * units.KiB, NegTTL: 10 * time.Millisecond, NegEntries: 2})
	defer c.Close()

	for _, p := range []string{"/a", "/b", "/c"} {
		if _, err := c.Open(p); !errors.Is(err, adal.ErrNotFound) {
			t.Fatalf("open %s: %v, want not-found", p, err)
		}
	}
	if st := c.Stats(); st.NegObjects != 2 {
		t.Fatalf("NegObjects=%d, want 2 (bounded)", st.NegObjects)
	}
	// /a was pushed out by /c; looking it up goes to the inner backend.
	opens := inner.opens.Load()
	if _, err := c.Open("/a"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("open /a: %v", err)
	}
	if n := inner.opens.Load(); n == opens {
		t.Fatal("evicted negative entry still answered locally")
	}

	time.Sleep(15 * time.Millisecond)
	opens = inner.opens.Load()
	if _, err := c.Open("/c"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("open /c after TTL: %v", err)
	}
	if n := inner.opens.Load(); n == opens {
		t.Fatal("expired negative entry still answered locally")
	}
}
