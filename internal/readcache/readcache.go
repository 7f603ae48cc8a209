// Package readcache is the per-site hot-set cache in front of the
// federation: a read-through adal.Backend wrapper with a byte-budgeted
// in-memory tier and a local-disk tier, sitting between callers and
// (typically) replication.FederatedBackend so repeated reads of remote
// objects stop re-crossing the WAN — the caching proxies the AAA
// federation pairs with its redirector, which hold partial files at
// block granularity because analysis jobs read a fraction of each file.
//
// Both tiers hold 256 KiB blocks keyed by (path, block index); a ranged
// read fetches only the blocks it lacks. Each tier is a segmented
// (2Q-style) LRU whose probationary segment absorbs one-touch traffic,
// behind an admission gate on the span a request touches. Concurrent
// misses of a block coalesce onto one fetch, every fetched block is
// SHA-256-verified against the replica catalog's digest through its
// checkpoint chain, and invalidation rides the metadata event bus: a
// dropped/deleted object is evicted everywhere, while stale/lost
// replica transitions evict only blocks that were never verified —
// verified blocks of immutable objects stay correct no matter which
// site died, which is what lets the cache keep serving the hot set
// straight through a site outage.
package readcache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/units"
)

// Config tunes a Cache. Zero Memory disables the memory tier; nil
// Disk disables the disk tier; with both disabled the cache is a
// transparent pass-through.
type Config struct {
	// Memory is the in-memory tier's byte budget.
	Memory units.Bytes
	// Disk is the backend holding the disk tier (a LocalFS in
	// production, a MemFS in tests); DiskBudget is its byte budget.
	Disk       adal.Backend
	DiskBudget units.Bytes
	// AdmitFraction caps the span one request touches at this fraction
	// of a tier's budget (default 0.25): a wider one bypasses the tier.
	AdmitFraction float64
	// ProtectedFraction is the share of a tier's budget reserved for
	// the protected (re-referenced) segment (default 0.75).
	ProtectedFraction float64
	// NegTTL enables negative caching when > 0: an Open or Stat that
	// misses everywhere and comes back not-found records the path for
	// this long, and lookups within the TTL answer not-found without
	// re-crossing the WAN — the federation probes every site before
	// concluding absence, so a repeated not-found is the most expensive
	// miss there is. Entries expire after the TTL and are invalidated
	// early by a create: through this cache directly, or by a created
	// event on the bus.
	NegTTL time.Duration
	// NegEntries bounds the negative set (default 1024); the oldest
	// recorded path falls out when full.
	NegEntries int
	// Meta, when set, drives invalidation: the cache subscribes to
	// replica and delete events on the store's bus.
	Meta *metadata.Store
	// MountPrefix is the federated mount prefix of the inner backend
	// (e.g. "/sites"); event paths are trimmed by it to recover
	// backend-relative cache keys.
	MountPrefix string
	// Obs, when set, receives the cache's fill-latency histogram.
	// Hit/miss/fill counters are sampled from Stats() at exposition
	// time instead, so the cached-hit path carries zero new cost.
	Obs *obs.Registry
}

// digestReporter is implemented by backends that can report an
// object's recorded size, content hash and checkpoint chain without
// reading it (FederatedBackend asks the replica catalog); discovered
// structurally.
type digestReporter interface {
	ObjectDigest(rel string) (adal.Digest, bool)
}

// blockSize is the unit both tiers cache: the spacing of the catalog's
// SHA-256 checkpoints, so any one block can be verified alone.
const blockSize = adal.ChainBlock

// blockFile is the disk tier's name for a block (recoverDisk parses it).
func blockFile(k blockKey) string { return k.path + "#" + strconv.FormatInt(k.idx, 10) }

// fillOp is one in-flight fetch, entered in Cache.ops under each block
// it claimed; readers that need one wait on done instead of opening
// their own WAN stream.
type fillOp struct {
	done        chan struct{}
	err         error
	invalidated bool // remove/delete/evict arrived mid-fill: do not insert
}

type negEntry struct {
	path string
	exp  time.Time
}

// Cache is a two-tier read-through block cache over any adal.Backend.
// All methods are safe for concurrent use.
type Cache struct {
	inner adal.Backend
	cfg   Config
	now   func() time.Time // time.Now; tests inject a clock

	mu   sync.Mutex
	mem  *segLRU // nil when the memory tier is disabled
	disk *segLRU // nil when the disk tier is disabled
	ops  map[blockKey]*fillOp
	neg  map[string]time.Time // not-found paths -> expiry (nil when NegTTL is 0)
	negQ []negEntry           // recordings, oldest first; never longer than NegEntries

	unsub func()

	memHits       atomic.Uint64
	diskHits      atomic.Uint64
	misses        atomic.Uint64
	bypasses      atomic.Uint64
	fills         atomic.Uint64
	fillBytes     atomic.Uint64
	dedups        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	fillErrors    atomic.Uint64
	negHits       atomic.Uint64

	// fillHist times miss fills (nil without Config.Obs; Observe on a
	// nil histogram is a no-op). Fills are WAN-scale, so the
	// histogram's cost disappears into the stream time.
	fillHist *obs.Histogram
}

var (
	_ adal.Backend     = (*Cache)(nil)
	_ adal.RangeOpener = (*Cache)(nil)
)

// New wraps inner with a read-through cache. When the disk tier's
// backend already holds block files (a restarted lsdfctl state dir),
// they are re-admitted as unverified blocks — served until the first
// replica event casts doubt on them.
func New(inner adal.Backend, cfg Config) *Cache {
	if cfg.AdmitFraction <= 0 || cfg.AdmitFraction > 1 {
		cfg.AdmitFraction = 0.25
	}
	if cfg.ProtectedFraction <= 0 || cfg.ProtectedFraction >= 1 {
		cfg.ProtectedFraction = 0.75
	}
	if cfg.NegEntries <= 0 {
		cfg.NegEntries = 1024
	}
	c := &Cache{inner: inner, cfg: cfg, now: time.Now, ops: make(map[blockKey]*fillOp)}
	if cfg.Obs != nil {
		c.fillHist = cfg.Obs.Histogram("lsdf_cache_fill_ns",
			"Miss fill duration: inner (often WAN) read, hash, tier insert.")
	}
	if cfg.NegTTL > 0 {
		c.neg = make(map[string]time.Time)
	}
	if cfg.Memory > 0 {
		c.mem = newSegLRU(cfg.Memory, cfg.ProtectedFraction, cfg.AdmitFraction)
	}
	if cfg.Disk != nil && cfg.DiskBudget > 0 {
		c.disk = newSegLRU(cfg.DiskBudget, cfg.ProtectedFraction, cfg.AdmitFraction)
		c.recoverDisk()
	}
	if cfg.Meta != nil {
		c.unsub = cfg.Meta.Subscribe(c.onEvent)
	}
	return c
}

// recoverDisk re-admits block files left in the disk backend by a
// prior process, as unverified blocks: usable immediately, evicted by
// the first stale/lost event on their path. Anything else is removed.
func (c *Cache) recoverDisk() {
	infos, err := c.cfg.Disk.List("/")
	if err != nil {
		return
	}
	var stray []string
	c.mu.Lock()
	for _, info := range infos {
		cut := strings.LastIndexByte(info.Path, '#')
		idx, err := strconv.ParseInt(info.Path[cut+1:], 10, 64)
		if cut <= 0 || err != nil || idx < 0 || info.Size > blockSize || !c.disk.admits(info.Size) {
			stray = append(stray, info.Path)
			continue
		}
		for _, e := range c.disk.add(&centry{key: blockKey{info.Path[:cut], idx}, size: info.Size}) {
			stray = append(stray, blockFile(e.key))
		}
	}
	c.mu.Unlock()
	for _, p := range stray {
		_ = c.cfg.Disk.Remove(p)
	}
}

// Close detaches the cache from the event bus. Cached entries remain
// readable; without invalidation they may go stale, so Close belongs
// at teardown only.
func (c *Cache) Close() {
	if c.unsub != nil {
		c.unsub()
		c.unsub = nil
	}
}

// Name implements adal.Backend transparently.
func (c *Cache) Name() string { return c.inner.Name() }

// negLookup reports whether path has a live cached not-found; expired
// entries are dropped in passing.
func (c *Cache) negLookup(path string) bool {
	if c.neg == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	exp, ok := c.neg[path]
	if !ok {
		return false
	}
	if c.now().After(exp) {
		delete(c.neg, path)
		return false
	}
	return true
}

// negStore records a not-found path until the TTL. A recording in negQ
// is live while the map still holds its expiry; dead ones (expired,
// dropped, superseded) leave from the head, and a queue full of live
// ones pushes its oldest out — so it never outgrows NegEntries however
// long a client polls rotating absent paths.
func (c *Cache) negStore(path string) {
	if c.neg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.negQ) > 0 {
		h := c.negQ[0]
		live := c.neg[h.path].Equal(h.exp)
		if live && len(c.negQ) < c.cfg.NegEntries {
			break
		}
		if live {
			delete(c.neg, h.path)
		}
		c.negQ = c.negQ[1:]
	}
	exp := c.now().Add(c.cfg.NegTTL)
	c.neg[path] = exp
	c.negQ = append(c.negQ, negEntry{path, exp})
}

// negDrop forgets a cached not-found (the object exists now). Its
// recording in negQ is dead from here on.
func (c *Cache) negDrop(path string) {
	if c.neg == nil {
		return
	}
	c.mu.Lock()
	delete(c.neg, path)
	c.mu.Unlock()
}

// negErr is the error a negative hit serves: indistinguishable from
// the inner backend's not-found for errors.Is purposes.
func (c *Cache) negErr(path string) error {
	c.negHits.Add(1)
	return fmt.Errorf("%w: %s:%s (negative-cached)", adal.ErrNotFound, c.inner.Name(), path)
}

// Create implements adal.Backend by delegating: the cache is
// read-through only, and objects are immutable (Create of an existing
// path fails below), so a write never shadows a cached entry. It
// does shadow a cached absence, so the negative entry goes first.
func (c *Cache) Create(path string) (io.WriteCloser, error) {
	c.negDrop(path)
	return c.inner.Create(path)
}

// Stat implements adal.Backend by delegating to the inner backend —
// unless a live negative entry answers (or records) the absence
// first.
func (c *Cache) Stat(path string) (adal.FileInfo, error) {
	if c.negLookup(path) {
		return adal.FileInfo{}, c.negErr(path)
	}
	info, err := c.inner.Stat(path)
	if err != nil && errors.Is(err, adal.ErrNotFound) {
		c.negStore(path)
	}
	return info, err
}

// List implements adal.Backend by delegating.
func (c *Cache) List(prefix string) ([]adal.FileInfo, error) { return c.inner.List(prefix) }

// Remove implements adal.Backend: the inner removal runs first, then
// the local entry is evicted unconditionally — even before the bus
// delivers the replica "dropped" events (which may be async), no read
// through this cache can resurrect the object.
func (c *Cache) Remove(path string) error {
	err := c.inner.Remove(path)
	if err == nil {
		c.invalidate(path, true)
	}
	return err
}

// Open implements adal.Backend.
func (c *Cache) Open(path string) (io.ReadCloser, error) {
	return c.OpenRange(context.Background(), path, 0, -1)
}

// OpenCtx is Open carrying the caller's context.
func (c *Cache) OpenCtx(ctx context.Context, path string) (io.ReadCloser, error) {
	return c.OpenRange(ctx, path, 0, -1)
}

// innerOpen is a ranged read of the inner backend, through its own
// OpenRange when it has one so spans and cancellation continue below
// the cache.
func (c *Cache) innerOpen(ctx context.Context, path string, off, n int64) (io.ReadCloser, error) {
	r, err := adal.OpenRange(ctx, c.inner, path, off, n)
	if err != nil && errors.Is(err, adal.ErrNotFound) {
		c.negStore(path)
	}
	return r, err
}

// lookup is one attempt to serve an object's bytes up to end out of
// its blocks, b0 onwards.
type lookup struct {
	path          string
	d             adal.Digest
	end, b0       int64
	toMem, toDisk bool // the tiers whose admission gate the span passes
	// blocks[j-b0] is block j in hand: a memory hit, a promoted disk
	// hit, or just fetched. nil is a block left on the disk tier, read
	// when the reader gets there.
	blocks [][]byte
}

// span points the lookup at blocks b0..b1 and asks each tier's gate
// about that span — not the object: a slice of a huge volume is cacheable.
func (lk *lookup) span(c *Cache, b0, b1 int64) {
	bytes := units.Bytes(min((b1+1)*blockSize, int64(lk.d.Size)) - b0*blockSize)
	lk.b0, lk.blocks = b0, make([][]byte, b1-b0+1)
	lk.toMem, lk.toDisk = c.mem.admits(bytes), c.disk.admits(bytes)
}

// OpenRange implements adal.RangeOpener, the cache's one read path:
// bytes [off, off+n) of path (to the end when n < 0), from cached
// blocks where it has them and by fetching only the blocks it lacks.
// A cache.open span brackets the lookup, a nested cache.fill span (and
// the fill histogram) times what a miss fetches; the context reaches
// the fetch.
func (c *Cache) OpenRange(ctx context.Context, path string, off, n int64) (io.ReadCloser, error) {
	sp := obs.StartSpan(ctx, "cache.open")
	defer sp.End()
	if c.negLookup(path) {
		return nil, c.negErr(path)
	}
	var missed, waited bool
	for attempt := 0; ; attempt++ {
		d, sized := c.objectMeta(path)
		lk := &lookup{path: path, d: d, end: int64(d.Size)}
		if n >= 0 && n < lk.end-off {
			lk.end = off + n
		}
		if sized && off >= 0 && off < lk.end {
			lk.span(c, off/blockSize, (lk.end-1)/blockSize)
		}
		if !(lk.toMem || lk.toDisk) || attempt >= 3 {
			// Unsizeable, empty, inadmissible, or losing repeated races:
			// stream straight through, uncoalesced.
			c.bypasses.Add(1)
			return c.innerOpen(ctx, path, off, n)
		}
		// A digest without a chain cannot vouch for one block: a miss
		// reads an admissible object whole once, deriving the chain as it
		// checks the digest (its cached blocks carry it from then on);
		// an inadmissible one is cached as unverified blocks.
		derive := d.Sum != "" && !d.Chained()
		if derive && !c.mem.admits(d.Size) && !c.disk.admits(d.Size) {
			derive, lk.d.Sum = false, ""
		}

		var mine, onDisk []int64
		var wait []*fillOp
		var op *fillOp
		classify := func(refetch bool) {
			mine, onDisk, wait = mine[:0], onDisk[:0], wait[:0]
			for i := range lk.blocks {
				j := lk.b0 + int64(i)
				if e := c.mem.get(path, j); e != nil && !refetch {
					c.mem.touch(e)
					lk.blocks[i] = e.data
				} else if o := c.ops[blockKey{path, j}]; o != nil {
					wait = append(wait, o)
				} else if e := c.disk.get(path, j); e != nil && !refetch && int64(e.size) == lk.d.BlockLen(j) {
					c.disk.touch(e)
					onDisk = append(onDisk, j)
				} else {
					mine = append(mine, j)
				}
			}
		}
		c.mu.Lock()
		if derive {
			if chain := c.derivedChain(path); chain != nil {
				derive, lk.d.Chain = false, chain
			}
		}
		classify(false)
		if derive && len(mine) > 0 {
			lk.span(c, 0, d.Blocks()-1)
			if classify(true); len(wait) > 0 {
				mine = nil // another reader is deriving; its chain will do
			}
		}
		if len(mine) > 0 {
			op = &fillOp{done: make(chan struct{})}
			for _, j := range mine {
				c.ops[blockKey{path, j}] = op
			}
		}
		c.mu.Unlock()

		if op != nil {
			missed = true
			err := c.fill(ctx, lk, mine, op, derive)
			c.mu.Lock()
			// A fill its own request cancelled is no verdict on the
			// object: its waiters see no error and fetch for themselves.
			// The op leaves the map before they wake.
			if ctx.Err() == nil {
				op.err = err
			}
			for _, j := range mine {
				delete(c.ops, blockKey{path, j})
			}
			c.mu.Unlock()
			close(op.done)
			if err != nil {
				return nil, err
			}
		}
		for _, o := range wait {
			if !waited {
				waited = true
				c.dedups.Add(1)
			}
			select {
			case <-o.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if o.err != nil {
				return nil, o.err
			}
		}
		retry := len(wait) > 0 // what the leaders fetched is cached now
		for _, j := range onDisk {
			if lk.toMem && !retry {
				lk.blocks[j-lk.b0] = c.diskBlock(lk, j)
				retry = lk.blocks[j-lk.b0] == nil
			}
		}
		if retry {
			continue
		}
		switch {
		case missed:
			c.misses.Add(1)
		case len(onDisk) > 0:
			c.diskHits.Add(1)
		default:
			c.memHits.Add(1)
		}
		return &spanReader{c: c, ctx: ctx, lk: lk, pos: off}, nil
	}
}

// objectMeta resolves an object's size and recorded digest — from the
// inner backend's catalog when it has one, else a Stat (size only).
func (c *Cache) objectMeta(path string) (adal.Digest, bool) {
	if dr, has := c.inner.(digestReporter); has {
		if d, ok := dr.ObjectDigest(path); ok && d.Size > 0 {
			return d, true
		}
	}
	info, err := c.inner.Stat(path)
	return adal.Digest{Size: info.Size}, err == nil && info.Size > 0
}

// derivedChain is the chain a whole read of path derived, found on any
// of its cached blocks. Callers hold c.mu.
func (c *Cache) derivedChain(path string) []byte {
	for _, s := range []*segLRU{c.mem, c.disk} {
		if s != nil {
			for _, e := range s.idx[path] {
				return e.chain
			}
		}
	}
	return nil
}

// fill fetches the claimed blocks (ascending), one inner ranged stream
// per run of neighbours, and admits those that check out. With a chain
// each block is checked on its own against the catalog's digest;
// deriving, the one run is the whole object and nothing is admitted
// unless its hash ends on the digest. A block that fails, or that the
// stream ends inside (a mid-stream failover can splice in a stale
// replica), is never cached but stays in hand when memory holds the
// span: the reader gets what a direct read would have returned. The
// context is checked between blocks; a cancelled fill keeps what it had
// verified.
func (c *Cache) fill(ctx context.Context, lk *lookup, mine []int64, op *fillOp, derive bool) (err error) {
	start := time.Now()
	sp := obs.StartSpan(ctx, "cache.fill")
	sp.Annotate("%s (%d blocks)", lk.path, len(mine))
	defer func() {
		sp.End()
		c.fillHist.ObserveSince(start)
	}()
	var dh *adal.ChainHasher
	if derive {
		dh = adal.NewChainHasher()
	}
	var toMem, toDisk []*centry
	var src io.ReadCloser
	defer func() {
		if src != nil {
			src.Close()
		}
	}()
	for i, j := range mine {
		if i == 0 || mine[i-1] != j-1 { // a new run: one stream to its last block
			last := i
			for last+1 < len(mine) && mine[last+1] == mine[last]+1 {
				last++
			}
			if src != nil {
				src.Close()
			}
			if src, err = c.innerOpen(ctx, lk.path, j*blockSize, (mine[last]-j)*blockSize+lk.d.BlockLen(mine[last])); err != nil {
				break
			}
			c.fills.Add(1)
		}
		if err = ctx.Err(); err != nil {
			break
		}
		buf := make([]byte, lk.d.BlockLen(j))
		k, rerr := io.ReadFull(src, buf)
		c.fillBytes.Add(uint64(k))
		if lk.toMem {
			lk.blocks[j-lk.b0] = buf[:k]
		}
		if err = rerr; err != nil {
			c.fillErrors.Add(1)
			break
		}
		e := centry{key: blockKey{lk.path, j}, size: units.Bytes(k)}
		if derive {
			dh.Write(buf)
		} else if lk.d.Sum != "" {
			if e.verified = lk.d.VerifyBlock(j, buf); !e.verified {
				c.fillErrors.Add(1)
				continue
			}
		}
		if lk.toDisk && c.writeDisk(blockFile(e.key), buf) {
			onDisk := e
			toDisk = append(toDisk, &onDisk)
		}
		if lk.toMem {
			e.data = buf
			toMem = append(toMem, &e)
		}
	}
	keep := true
	if derive {
		got := dh.Digest()
		if keep = err == nil && got.Sum == lk.d.Sum && got.Size == lk.d.Size; !keep && err == nil {
			c.fillErrors.Add(1)
		}
		for _, tier := range [][]*centry{toMem, toDisk} {
			for _, e := range tier {
				e.verified, e.chain = true, got.Chain
			}
		}
	}
	// Admit, unless the object was dropped under the fill; whatever is
	// not kept, or is pushed out, loses its disk file.
	var files []*centry
	c.mu.Lock()
	if keep = keep && !op.invalidated; keep {
		for _, e := range toMem {
			c.evictions.Add(uint64(len(c.mem.add(e))))
		}
		for _, e := range toDisk {
			files = append(files, c.disk.add(e)...)
		}
		c.evictions.Add(uint64(len(files)))
	} else {
		files = toDisk
	}
	c.mu.Unlock()
	for _, e := range files {
		_ = c.cfg.Disk.Remove(blockFile(e.key))
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // a stream that ran out is served as far as it went
	}
	return err
}

// writeDisk stores one block file on the disk tier, in place of any
// leftover, reporting whether it is there; a block that cannot be
// written is simply not cached.
func (c *Cache) writeDisk(name string, data []byte) bool {
	_ = c.cfg.Disk.Remove(name)
	w, err := c.cfg.Disk.Create(name)
	if err != nil {
		return false
	}
	_, err = w.Write(data)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = c.cfg.Disk.Remove(name)
	}
	return err == nil
}

// diskBlock reads block j of lk's object from the disk tier, promoting
// it when memory admits the span (the disk hit is the re-reference that
// earns it). A block that is gone or cut short is dropped from the tier
// and nil returned.
func (c *Cache) diskBlock(lk *lookup, j int64) []byte {
	if c.disk == nil {
		return nil
	}
	name := blockFile(blockKey{lk.path, j})
	data := make([]byte, lk.d.BlockLen(j))
	f, err := c.cfg.Disk.Open(name)
	if err == nil {
		_, err = io.ReadFull(f, data)
		f.Close()
	}
	c.mu.Lock()
	e := c.disk.get(lk.path, j)
	switch {
	case e == nil:
	case err != nil:
		c.disk.removeEntry(e)
	case lk.toMem && c.mem.get(lk.path, j) == nil:
		// Only while the disk entry is live: an invalidation that raced
		// the read must not be resurrected.
		up := *e
		up.data = data
		c.evictions.Add(uint64(len(c.mem.add(&up))))
	}
	c.mu.Unlock()
	if err != nil {
		_ = c.cfg.Disk.Remove(name)
		return nil
	}
	return data
}

// spanReader serves a lookup's byte range: blocks in hand by reference,
// disk-tier blocks read one at a time as the reader reaches them.
type spanReader struct {
	c   *Cache
	ctx context.Context
	lk  *lookup
	pos int64

	cur    []byte // the disk-tier block pos is in
	curIdx int64
	tail   io.ReadCloser // set once the rest comes from the inner backend
}

func (r *spanReader) Read(p []byte) (int, error) {
	lk := r.lk
	if r.tail != nil {
		return r.tail.Read(p)
	}
	if r.pos >= lk.end {
		return 0, io.EOF
	}
	j, in := r.pos/blockSize, r.pos%blockSize
	blk := lk.blocks[j-lk.b0]
	if blk == nil {
		if r.cur == nil || r.curIdx != j {
			r.cur, r.curIdx = r.c.diskBlock(lk, j), j
		}
		blk = r.cur
	}
	if int64(len(blk)) <= in {
		// Not cached after all (evicted since the lookup, or fetched
		// short): the rest comes straight from the inner backend.
		tail, err := r.c.innerOpen(r.ctx, lk.path, r.pos, lk.end-r.pos)
		if err != nil {
			return 0, err
		}
		r.tail = tail
		return tail.Read(p)
	}
	k := copy(p, blk[in:min(int64(len(blk)), in+lk.end-r.pos)])
	r.pos += int64(k)
	return k, nil
}

// WriteTo hands the blocks in hand to w by reference, with no staging
// copy, and streams whatever is not in hand through Read.
func (r *spanReader) WriteTo(w io.Writer) (total int64, err error) {
	for lk := r.lk; r.tail == nil && r.pos < lk.end; {
		blk, in := lk.blocks[r.pos/blockSize-lk.b0], r.pos%blockSize
		if int64(len(blk)) <= in {
			break
		}
		k, err := w.Write(blk[in:min(int64(len(blk)), in+lk.end-r.pos)])
		r.pos += int64(k)
		if total += int64(k); err != nil {
			return total, err
		}
	}
	if r.tail == nil && r.pos >= r.lk.end {
		return total, nil
	}
	k, err := adal.PooledCopy(w, struct{ io.Reader }{r})
	return total + k, err
}

func (r *spanReader) Close() error {
	if r.tail != nil {
		return r.tail.Close()
	}
	return nil
}

// onEvent drives invalidation from the metadata bus. Replica
// "dropped" and dataset deletion evict the path unconditionally and
// poison any in-flight fill; "stale"/"lost" evict only unverified
// entries — a checksum-verified copy of an immutable object is
// correct regardless of which replica just died, and keeping it is
// exactly what lets the cache ride out a site failover.
func (c *Cache) onEvent(ev metadata.Event) {
	var state string
	switch ev.Type {
	case metadata.EventReplica:
		state = ev.Placement
		if state != "stale" && state != "lost" && state != "dropped" {
			return
		}
	case metadata.EventDeleted:
		state = "dropped"
	case metadata.EventCreated:
		// A creation anywhere in the federation obsoletes a cached
		// absence: the next lookup must go ask.
		path := ev.Dataset.Path
		if c.cfg.MountPrefix != "" {
			if !strings.HasPrefix(path, c.cfg.MountPrefix) {
				return
			}
			path = strings.TrimPrefix(path, c.cfg.MountPrefix)
		}
		c.negDrop(path)
		return
	default:
		return
	}
	path := ev.Dataset.Path
	if c.cfg.MountPrefix != "" {
		if !strings.HasPrefix(path, c.cfg.MountPrefix) {
			return
		}
		path = strings.TrimPrefix(path, c.cfg.MountPrefix)
	}
	c.invalidate(path, state == "dropped")
}

// invalidate evicts path's blocks from both tiers; force evicts even
// checksum-verified ones.
func (c *Cache) invalidate(path string, force bool) {
	c.invalidations.Add(uint64(c.dropPath(path, force)))
}

// dropPath removes path's blocks — only the unverified unless all —
// from both tiers, disk files included, and reports how many went. With
// all it also poisons the path's in-flight fills.
func (c *Cache) dropPath(path string, all bool) int {
	c.mu.Lock()
	n := len(c.mem.drop(path, all))
	files := c.disk.drop(path, all)
	if all {
		for k, op := range c.ops {
			if k.path == path {
				op.invalidated = true
			}
		}
	}
	c.mu.Unlock()
	for _, e := range files {
		_ = c.cfg.Disk.Remove(blockFile(e.key))
	}
	return n + len(files)
}

// Evict drops path from every tier (the lsdfctl verb), reporting
// whether anything was cached.
func (c *Cache) Evict(path string) bool {
	n := c.dropPath(path, true)
	c.evictions.Add(uint64(n))
	return n > 0
}

// Warm pre-fills the cache with every inner object under prefix that
// the tiers admit whole, returning how many objects are now cached.
func (c *Cache) Warm(prefix string) (int, error) {
	infos, err := c.inner.List(prefix)
	if err != nil {
		return 0, err
	}
	warmed := 0
	for _, info := range infos {
		if !c.mem.admits(info.Size) && !c.disk.admits(info.Size) {
			continue
		}
		r, err := c.Open(info.Path)
		if err != nil {
			continue
		}
		_, cerr := io.Copy(io.Discard, r)
		r.Close()
		if cerr == nil {
			warmed++
		}
	}
	return warmed, nil
}

// CacheTier reports which tier currently holds blocks of rel ("memory"
// wins over "disk").
func (c *Cache) CacheTier(rel string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mem.has(rel) {
		return "memory", true
	}
	if c.disk.has(rel) {
		return "disk", true
	}
	return "", false
}

// Stats is a point-in-time snapshot of the cache counters and tier
// occupancy. MemHits, DiskHits, Misses and Dedups count lookups: a hit
// fetched nothing (DiskHits: at least one block came from the disk
// tier), a miss fetched at least one block, a dedup waited on another
// reader's fetch. Fills and FillBytes count what was fetched from the
// inner backend — streams and bytes; Evictions and Invalidations count
// blocks; MemObjects and DiskObjects count objects with a block cached.
type Stats struct {
	MemHits, DiskHits        uint64
	Misses, Bypasses         uint64
	Fills, FillBytes, Dedups uint64
	Evictions                uint64
	Invalidations            uint64
	FillErrors               uint64
	NegHits                  uint64 // lookups answered not-found from the negative set

	MemUsed, MemBudget   units.Bytes
	DiskUsed, DiskBudget units.Bytes
	MemObjects           int
	DiskObjects          int
	NegObjects           int // live negative entries
}

// HitRate is hits across both tiers over all cacheable lookups.
func (s Stats) HitRate() float64 {
	total := s.MemHits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.MemHits+s.DiskHits) / float64(total)
}

// Stats returns the current counters and occupancy.
func (c *Cache) Stats() Stats {
	st := Stats{
		MemHits:       c.memHits.Load(),
		DiskHits:      c.diskHits.Load(),
		Misses:        c.misses.Load(),
		Bypasses:      c.bypasses.Load(),
		Fills:         c.fills.Load(),
		FillBytes:     c.fillBytes.Load(),
		Dedups:        c.dedups.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		FillErrors:    c.fillErrors.Load(),
		NegHits:       c.negHits.Load(),
	}
	c.mu.Lock()
	if c.mem != nil {
		st.MemUsed, st.MemBudget, st.MemObjects = c.mem.used, c.mem.budget, len(c.mem.idx)
	}
	if c.disk != nil {
		st.DiskUsed, st.DiskBudget, st.DiskObjects = c.disk.used, c.disk.budget, len(c.disk.idx)
	}
	st.NegObjects = len(c.neg)
	c.mu.Unlock()
	return st
}

// Entry describes what one tier holds of one object, for listings.
type Entry struct {
	Path     string
	Tier     string      // "memory" or "disk"
	Size     units.Bytes // bytes of the object cached in the tier
	Verified bool        // every cached block is
	Hot      bool        // some block is in the protected segment (re-referenced)
}

// Entries lists every cached object, memory tier first, each tier
// sorted by path.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Entry
	collect := func(s *segLRU, tier string) {
		if s == nil {
			return
		}
		from := len(out)
		for p, blocks := range s.idx {
			ent := Entry{Path: p, Tier: tier, Verified: true}
			for _, e := range blocks {
				ent.Size += e.size
				ent.Verified = ent.Verified && e.verified
				ent.Hot = ent.Hot || e.prot
			}
			out = append(out, ent)
		}
		sort.Slice(out[from:], func(i, j int) bool { return out[from+i].Path < out[from+j].Path })
	}
	collect(c.mem, "memory")
	collect(c.disk, "disk")
	return out
}
