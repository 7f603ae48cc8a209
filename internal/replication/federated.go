package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// FederatedBackend exposes the whole federation through the plain
// adal.Backend contract: reads resolve to the nearest site holding a
// valid replica and fail over transparently — at Open and mid-stream
// — when a site errors, marking the failed replica Stale (Lost on
// not-found) and enqueueing its re-replication; writes land on the
// nearest reachable site (the object's home) and trigger asynchronous
// fan-out to MinReplicas. This is PR 2's refresh-on-failure reader
// discipline lifted from DFS replicas to sites.
type FederatedBackend struct {
	name   string
	meta   *metadata.Store
	engine *Engine

	mu      sync.Mutex
	writing map[string]struct{} // paths between Create and their writer's Close

	failovers    atomic.Uint64 // candidate switches at Open time
	midStream    atomic.Uint64 // reader switches mid-stream
	listFailures atomic.Uint64 // per-site List errors absorbed by the union
}

var _ adal.Backend = (*FederatedBackend)(nil)

// FederatedStats is a snapshot of the backend's failover counters.
type FederatedStats struct {
	Failovers    uint64
	MidStream    uint64
	ListFailures uint64
}

// NewFederated wraps an engine's federation as a backend.
func NewFederated(name string, engine *Engine) *FederatedBackend {
	return &FederatedBackend{
		name:    name,
		meta:    engine.meta,
		engine:  engine,
		writing: make(map[string]struct{}),
	}
}

// Name implements adal.Backend.
func (f *FederatedBackend) Name() string { return f.name }

// FedStats returns the failover counters.
func (f *FederatedBackend) FedStats() FederatedStats {
	return FederatedStats{
		Failovers:    f.failovers.Load(),
		MidStream:    f.midStream.Load(),
		ListFailures: f.listFailures.Load(),
	}
}

// ObjectDigest reports the catalogue's digest — size, content hash and
// checkpoint chain — for the backend-relative path. The read cache
// discovers this structurally to size admission and verify the blocks
// it fetches without an extra WAN round trip.
func (f *FederatedBackend) ObjectDigest(rel string) (adal.Digest, bool) {
	return f.meta.Digest(f.engine.key(rel))
}

// noteFailure records a failed site read, a client's or a copy's: the
// replica is marked Stale (Lost when the site reports the object
// missing) and its re-replication is enqueued.
func (e *Engine) noteFailure(s *Site, key string, err error) {
	st := metadata.ReplicaStale
	if errors.Is(err, adal.ErrNotFound) {
		st = metadata.ReplicaLost
	}
	e.meta.SetReplica(key, s.Name, st)
	e.ensure(key)
}

// readCandidates orders the sites worth trying for a read of path:
// valid replicas nearest first, then — when the reader takes them —
// stale ones (their bytes are suspect: better than failing a client, and
// proven good or bad by a copy that checks them against the recorded
// digest, which is what lets a path whose every valid replica died
// converge from a surviving stale copy), skipping sites already tried.
// tried is one read's record of the sites it has used up; the value
// says the site was given up on only because it was down, so readmit
// may offer it again once it is back.
// Sites whose health gate is already down are returned separately —
// dialing them is pointless, but the caller still owes them the
// read-triggered bookkeeping (stale mark, failover count) so outage
// detection keeps working.
func (e *Engine) readCandidates(key string, tried map[string]bool, takeStale bool) (cands, down []*Site) {
	var valid, stale []*Site
	for _, rep := range e.meta.Replicas(key) {
		if _, seen := tried[rep.Site]; seen {
			continue
		}
		s, ok := e.Site(rep.Site)
		if !ok {
			continue
		}
		if rep.State != metadata.ReplicaValid && !(takeStale && rep.State == metadata.ReplicaStale) {
			continue
		}
		if s.IsDown() {
			down = append(down, s)
			continue
		}
		if rep.State == metadata.ReplicaValid {
			valid = append(valid, s)
		} else {
			stale = append(stale, s)
		}
	}
	sortSites(valid)
	sortSites(stale)
	return append(valid, stale...), down
}

// noteDown records that a read skipped a known-down site: the replica
// is marked Stale, and re-replication is enqueued only on the actual
// state transition — a site that stays down through a thousand reads
// costs one catalogue record and event and one ensure, not a thousand.
func (e *Engine) noteDown(s *Site, key string, tried map[string]bool) error {
	tried[s.Name] = true
	if e.meta.SetReplica(key, s.Name, metadata.ReplicaStale) {
		e.ensure(key)
	}
	return s.errDown()
}

// readmit is called when a read has run out of candidates: it puts
// back every site the read gave up on for being down that is up again
// — under a kill/revive schedule the site seen down first is often
// back by the time the last one fails — and reports whether there is
// one. A read therefore fails only if no replica is reachable when it
// gives up. Every retry needs a site to have come back, so the loop
// ends when the outage does; it never sleeps.
func (e *Engine) readmit(tried map[string]bool) bool {
	back := false
	for name, wasDown := range tried {
		if s, ok := e.Site(name); ok && wasDown && !s.IsDown() {
			delete(tried, name)
			back = true
		}
	}
	return back
}

// Open implements adal.Backend.
func (f *FederatedBackend) Open(path string) (io.ReadCloser, error) {
	return f.OpenRange(context.Background(), path, 0, -1)
}

// OpenCtx is Open carrying the caller's context.
func (f *FederatedBackend) OpenCtx(ctx context.Context, path string) (io.ReadCloser, error) {
	return f.OpenRange(ctx, path, 0, -1)
}

// OpenRange implements adal.RangeOpener, the backend's one read path:
// bytes [off, off+n) (to the end when n < 0) from the nearest valid
// replica, positioned at off on the site itself, with transparent
// failover and a reader that keeps failing over mid-stream. Sites
// already marked down are skipped without a dial attempt and, being
// added to tried, are not revisited while other candidates remain.
// Traced reads get a fed.open span annotated with the site that won,
// so a trace shows whether bytes came from the local site or crossed
// the WAN.
func (f *FederatedBackend) OpenRange(ctx context.Context, path string, off, n int64) (io.ReadCloser, error) {
	sp := obs.StartSpan(ctx, "fed.open")
	defer sp.End()
	key := f.engine.key(path)
	if f.meta.Replicas(key) == nil {
		return nil, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, f.name, path)
	}
	r := &failoverReader{
		eng: f.engine, key: key, offset: off, remain: n, stale: true,
		switched: &f.midStream, tried: make(map[string]bool),
	}
	err := r.switchSource()
	f.failovers.Add(r.gaveUp)
	if err != nil {
		return nil, err
	}
	sp.Annotate("site=%s", r.site.Name)
	return r, nil
}

// failoverReader streams one replica and, when a site dies under it,
// resumes from the next candidate at the current offset — the caller
// sees one uninterrupted byte stream. It is the one code that resumes a
// read on another site: client reads (OpenRange) and the engine's
// copies (copyOnce) both read through it, each with its own counters.
type failoverReader struct {
	eng      *Engine
	key      string // the path's federated key
	site     *Site
	cur      io.ReadCloser // nil until the first source is open
	offset   int64
	remain   int64           // bytes still to serve; negative: to the object's end
	stale    bool            // stale replicas are candidates too
	tried    map[string]bool // pre-seeded with sites never to read from
	served   *Site           // the site the last bytes came from,
	sources  int             // and how many sites bytes have come from
	gaveUp   uint64          // candidates given up on; the owner reads it once the first source is open
	switched *atomic.Uint64  // the owner's count of mid-stream switches
	closed   bool
}

func (r *failoverReader) Read(p []byte) (int, error) {
	if r.closed {
		return 0, fmt.Errorf("replication: read after close: %s", r.key)
	}
	if r.remain == 0 {
		return 0, io.EOF
	}
	if r.remain > 0 && int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	for {
		n, err := r.cur.Read(p)
		if n > 0 && r.served != r.site {
			r.served, r.sources = r.site, r.sources+1
		}
		r.offset += int64(n)
		if r.remain > 0 {
			r.remain -= int64(n)
		}
		if err == nil || err == io.EOF {
			return n, err
		}
		r.eng.noteFailure(r.site, r.key, err)
		r.tried[r.site.Name] = errors.Is(err, ErrSiteDown)
		if r.switchSource() != nil {
			return n, err
		}
		if n > 0 {
			return n, nil
		}
	}
}

// switchSource opens the next untried candidate at the current offset:
// a read's first source (every candidate given up on counts as a
// failover) or the replacement for one that died mid-stream. Known-down
// sites are skipped without a dial. It gives up, with the last site's
// error, only when readmit finds no site back.
func (r *failoverReader) switchSource() error {
	var lastErr error
	for {
		cands, down := r.eng.readCandidates(r.key, r.tried, r.stale)
		for _, s := range down {
			lastErr = r.eng.noteDown(s, r.key, r.tried)
			r.gaveUp++
		}
		if len(cands) == 0 {
			if r.eng.readmit(r.tried) {
				continue
			}
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: %s (no readable replica)", adal.ErrNotFound, r.key)
			}
			return lastErr
		}
		s := cands[0]
		nr, err := s.openAt(r.eng.rel(r.key), r.offset)
		r.tried[s.Name] = errors.Is(err, ErrSiteDown)
		if err != nil {
			r.eng.noteFailure(s, r.key, err)
			lastErr = err
			r.gaveUp++
			continue
		}
		if r.cur != nil {
			r.cur.Close()
			r.switched.Add(1)
		}
		r.cur, r.site = nr, s
		return nil
	}
}

// WriteTo streams the remainder of the object through the shared
// transfer-buffer pool. Without it, an io.Copy whose destination is
// not a ReaderFrom (a checksum hash, a cache fill's multi-writer)
// allocates a fresh 32 KiB buffer per read — per-read garbage on the
// federation's hottest path. The source is wrapped to hide this very
// method from io.CopyBuffer, and the copy funnels through Read, so
// mid-stream failover keeps working under WriteTo.
func (r *failoverReader) WriteTo(w io.Writer) (int64, error) {
	return adal.PooledCopy(w, struct{ io.Reader }{r})
}

func (r *failoverReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	return r.cur.Close()
}

// Create implements adal.Backend: the object's home is the nearest
// reachable site; closing the writer registers the home replica and the
// object's digest in the catalogue (metadata.Store.AddReplica) and
// schedules fan-out to MinReplicas. The path is held in writing from
// here to that Close, so of two creators one is refused and whatever a
// site already has under a path the catalogue does not know is an
// orphan — the home copy of a write whose site died before Close could
// clear it — and is replaced.
func (f *FederatedBackend) Create(path string) (io.WriteCloser, error) {
	key := f.engine.key(path)
	f.mu.Lock()
	_, busy := f.writing[path]
	if busy || f.meta.Replicas(key) != nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s:%s", adal.ErrExists, f.name, path)
	}
	f.writing[path] = struct{}{}
	f.mu.Unlock()
	var lastErr error
	for _, s := range f.engine.Sites() {
		if s.IsDown() {
			continue
		}
		w, err := s.createFresh(path)
		if err != nil {
			lastErr = err
			if errors.Is(err, adal.ErrExists) {
				break
			}
			continue
		}
		return adal.NewChecksumWriter(w, func(d adal.Digest, werr error) error {
			defer f.wrote(path)
			if werr != nil {
				// Gated cleanup: a home site that died mid-write keeps
				// its partial bytes, like a site behind a severed link.
				_ = s.remove(path)
				return werr
			}
			f.meta.AddReplica(key, s.Name, d)
			f.engine.ensure(key)
			return nil
		}), nil
	}
	f.wrote(path)
	if lastErr == nil {
		lastErr = fmt.Errorf("replication: %s: every site down", f.name)
	}
	return nil, lastErr
}

// wrote releases the hold Create took on path.
func (f *FederatedBackend) wrote(path string) {
	f.mu.Lock()
	delete(f.writing, path)
	f.mu.Unlock()
}

// Stat implements adal.Backend: the nearest reachable valid replica's
// stat, or — every valid site down — the catalogue's digest, which
// records the size at write time.
func (f *FederatedBackend) Stat(path string) (adal.FileInfo, error) {
	key := f.engine.key(path)
	if f.meta.Replicas(key) == nil {
		return adal.FileInfo{}, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, f.name, path)
	}
	for _, name := range f.meta.ValidSites(key) {
		if s, ok := f.engine.Site(name); ok {
			if info, err := s.stat(path); err == nil {
				info.Path = path
				return info, nil
			}
		}
	}
	d, _ := f.meta.Digest(key)
	return adal.FileInfo{Path: path, Size: d.Size}, nil
}

// List implements adal.Backend as a union across sites: every
// reachable site lists the prefix (an object-store site pages through
// start-after here), per-path duplicates keep the nearest site's
// entry, and entries are filtered against the catalogue so half-copied
// replicas (Pending/Copying) and orphans never surface. Sites that fail
// to list are absorbed by the union, not surfaced — listing survives an
// outage exactly as Open does.
func (f *FederatedBackend) List(prefix string) ([]adal.FileInfo, error) {
	seen := make(map[string]adal.FileInfo)
	okSites := 0
	var lastErr error
	for _, s := range f.engine.Sites() { // nearest first: first entry wins
		infos, err := s.list(prefix)
		if err != nil {
			f.listFailures.Add(1)
			lastErr = err
			continue
		}
		okSites++
		for _, info := range infos {
			if _, dup := seen[info.Path]; dup {
				continue
			}
			st, _ := f.meta.Replica(f.engine.key(info.Path), s.Name)
			if st != metadata.ReplicaValid && st != metadata.ReplicaStale {
				continue
			}
			seen[info.Path] = info
		}
	}
	if okSites == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("replication: %s: every site down", f.name)
		}
		return nil, lastErr
	}
	out := make([]adal.FileInfo, 0, len(seen))
	for _, info := range seen {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Remove implements adal.Backend: the catalogue row is dropped first —
// so a copy still in flight has its commit refused and removes its own
// bytes — and then the replica is removed, best effort, from every site
// the row held. A site that is down at removal time keeps orphaned
// bytes permanently — with the row gone, no verify or reconcile will
// revisit them (they stay invisible to reads and List, which filter
// through the catalogue, and Create replaces them). A garbage collector
// diffing site contents against the catalogue is the missing piece,
// deliberately out of scope here.
func (f *FederatedBackend) Remove(path string) error {
	reps := f.meta.DropReplicas(f.engine.key(path))
	if reps == nil {
		return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, f.name, path)
	}
	for _, rep := range reps {
		if s, ok := f.engine.Site(rep.Site); ok {
			_ = s.remove(path)
		}
	}
	return nil
}
