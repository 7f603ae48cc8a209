package replication

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

// ErrChecksum is returned when a transferred replica does not match
// the recorded content hash.
var ErrChecksum = errors.New("replication: checksum mismatch")

// ErrNoSource is returned when a transfer finds no valid replica to
// copy from (every source site is down or stale).
var ErrNoSource = errors.New("replication: no valid source replica")

// Config tunes an Engine.
type Config struct {
	// Catalog is the replica catalog the engine converges. Required.
	Catalog *Catalog
	// Sites is the federation. Required, ≥ 1 site.
	Sites []*Site
	// MinReplicas is the default replication target (default 2,
	// capped at the site count).
	MinReplicas int
	// Streams sizes the transfer worker pool (default 4).
	Streams int
	// PairStreams caps concurrent transfers per ordered (src, dst)
	// site pair — the WAN-circuit limit (default 2).
	PairStreams int
	// Retries bounds transfer attempts per (path, site) job
	// (default 3).
	Retries int
	// ChunkSize is the streaming-copy granularity; each chunk is
	// hashed, written and WAN-paced before the next is read
	// (default 256 KiB).
	ChunkSize units.Bytes
	// WAN, when set, paces transfers by per-site-pair bandwidth and
	// latency. nil means LAN-speed copies.
	WAN *WAN
	// Meta, when set, is subscribed for EventCreated under
	// MountPrefix: new datasets are replicated as they are
	// registered, with no polling.
	Meta *metadata.Store
	// MountPrefix is the federation's mount point in the ADAL
	// namespace (e.g. "/sites"); events and EnsureFederated strip it.
	MountPrefix string
}

// Stats is a snapshot of the engine's lifetime counters.
type Stats struct {
	Transfers       uint64      // completed byte-moving copies
	TransferBytes   units.Bytes // bytes moved by those copies
	Retries         uint64      // failed attempts that were retried
	SourceFailovers uint64      // mid-copy switches to another source replica
	Reverifies      uint64      // replicas revalidated by checksum, no copy
	DedupSkips      uint64      // enqueues suppressed by the per-(path,site) singleflight
	Failures        uint64      // jobs that exhausted their retries
	Pending         int         // queued + in-flight jobs right now
}

type job struct {
	path string
	dst  string
}

// Engine converges the catalog toward MinReplicas valid replicas per
// path with a pool of transfer workers. Ensure (and the metadata
// subscription feeding it) is cheap and non-blocking: it schedules
// jobs into an unbounded queue guarded by a per-(path, site)
// singleflight, so repeated triggers for the same replica — a create
// event racing a rules action racing a read-failure requeue — cost
// one transfer. Wait is the quiescence barrier; Reconcile re-examines
// every cataloged path (the site-revive entry point).
type Engine struct {
	cfg     Config
	catalog *Catalog
	sites   map[string]*Site
	order   []*Site // nearest first

	mu       sync.Mutex
	queue    []job
	inflight map[string]struct{} // path+"\x00"+site
	pending  int
	closed   bool
	work     *sync.Cond // signaled when the queue gains a job or the engine closes
	idle     *sync.Cond // broadcast when pending drops to zero

	pairMu    sync.Mutex
	pairSlots map[[2]string]chan struct{}

	unsub func()
	wg    sync.WaitGroup

	transfers       atomic.Uint64
	transferBytes   atomic.Int64
	retries         atomic.Uint64
	sourceFailovers atomic.Uint64
	reverifies      atomic.Uint64
	dedupSkips      atomic.Uint64
	failures        atomic.Uint64
}

// chunkPool recycles transfer chunks across concurrent streams.
var chunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, 256*units.KiB)
		return &b
	},
}

// NewEngine builds an engine over the sites and starts its workers.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("replication: Config.Catalog is required")
	}
	if len(cfg.Sites) == 0 {
		return nil, errors.New("replication: at least one site required")
	}
	if cfg.MinReplicas <= 0 {
		cfg.MinReplicas = 2
	}
	if cfg.MinReplicas > len(cfg.Sites) {
		cfg.MinReplicas = len(cfg.Sites)
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 4
	}
	if cfg.PairStreams <= 0 {
		cfg.PairStreams = 2
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 256 * units.KiB
	}
	e := &Engine{
		cfg:       cfg,
		catalog:   cfg.Catalog,
		sites:     make(map[string]*Site, len(cfg.Sites)),
		order:     append([]*Site(nil), cfg.Sites...),
		inflight:  make(map[string]struct{}),
		pairSlots: make(map[[2]string]chan struct{}),
	}
	sortSites(e.order)
	for _, s := range e.order {
		if _, dup := e.sites[s.Name]; dup {
			return nil, fmt.Errorf("replication: duplicate site %q", s.Name)
		}
		e.sites[s.Name] = s
	}
	e.work = sync.NewCond(&e.mu)
	e.idle = sync.NewCond(&e.mu)
	for i := 0; i < cfg.Streams; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	if cfg.Meta != nil {
		e.unsub = cfg.Meta.Subscribe(e.onEvent)
	}
	return e, nil
}

// Close detaches the metadata subscription and stops the workers.
// Queued-but-unstarted jobs are dropped; in-flight transfers finish.
func (e *Engine) Close() {
	if e.unsub != nil {
		e.unsub()
		e.unsub = nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.pending -= len(e.queue)
	for _, j := range e.queue {
		delete(e.inflight, j.path+"\x00"+j.dst)
	}
	e.queue = nil
	if e.pending == 0 {
		e.idle.Broadcast()
	}
	e.work.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// MinReplicas returns the engine's replication target.
func (e *Engine) MinReplicas() int { return e.cfg.MinReplicas }

// Sites returns the federation, nearest first.
func (e *Engine) Sites() []*Site { return append([]*Site(nil), e.order...) }

// Site returns a site by name.
func (e *Engine) Site(name string) (*Site, bool) {
	s, ok := e.sites[name]
	return s, ok
}

// Stats returns a snapshot of the lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	pending := e.pending
	e.mu.Unlock()
	return Stats{
		Transfers:       e.transfers.Load(),
		TransferBytes:   units.Bytes(e.transferBytes.Load()),
		Retries:         e.retries.Load(),
		SourceFailovers: e.sourceFailovers.Load(),
		Reverifies:      e.reverifies.Load(),
		DedupSkips:      e.dedupSkips.Load(),
		Failures:        e.failures.Load(),
		Pending:         pending,
	}
}

// onEvent feeds the engine from the metadata bus: every dataset
// created under the federation mount is scheduled for replication.
func (e *Engine) onEvent(ev metadata.Event) {
	if ev.Type != metadata.EventCreated {
		return
	}
	e.EnsureFederated(ev.Dataset.Path)
}

// EnsureFederated is Ensure for a federated (mount-table) path; paths
// outside the federation mount are ignored.
func (e *Engine) EnsureFederated(fed string) {
	if e.cfg.MountPrefix != "" {
		if !strings.HasPrefix(fed, e.cfg.MountPrefix+"/") {
			return
		}
		fed = strings.TrimPrefix(fed, e.cfg.MountPrefix)
	}
	e.Ensure(fed)
}

// Ensure schedules whatever transfers path needs to reach the
// engine's MinReplicas target. It never blocks on transfer work.
func (e *Engine) Ensure(path string) { e.EnsureN(path, e.cfg.MinReplicas) }

// EnsureN is Ensure with an explicit target (capped at the site
// count). Replica selection prefers refreshing an existing stale or
// lost replica on a reachable site (often a cheap re-verify, never a
// duplicate copy) over opening a new site.
func (e *Engine) EnsureN(path string, min int) {
	if min > len(e.order) {
		min = len(e.order)
	}
	reps := e.catalog.Replicas(path)
	bySite := make(map[string]Replica, len(reps))
	for _, r := range reps {
		bySite[r.Site] = r
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	// A site counts toward the target if it holds a valid replica or
	// has a job in flight (which will make it valid, or fail and be
	// requeued by a later Ensure). The in-flight check must not
	// depend on a catalog record existing — the Pending record is
	// written when the job starts, and counting only cataloged sites
	// here would let an Ensure storm schedule surplus sites.
	good := 0
	busy := func(site string) bool {
		_, b := e.inflight[path+"\x00"+site]
		return b
	}
	for _, s := range e.order {
		if r, has := bySite[s.Name]; has && r.State == Valid {
			good++
		} else if busy(s.Name) {
			good++
		}
	}
	if good >= min {
		return
	}
	// Refresh existing non-valid replicas on reachable sites first,
	// nearest first; then open new replicas on reachable sites
	// without one.
	var targets []string
	for _, s := range e.order {
		r, has := bySite[s.Name]
		if has && r.State != Valid && !s.IsDown() && !busy(s.Name) {
			targets = append(targets, s.Name)
		}
	}
	for _, s := range e.order {
		if _, has := bySite[s.Name]; !has && !s.IsDown() && !busy(s.Name) {
			targets = append(targets, s.Name)
		}
	}
	for _, dst := range targets {
		if good >= min {
			return
		}
		if e.enqueueLocked(path, dst) {
			good++
		}
	}
}

// enqueueLocked schedules one (path, dst) job under the singleflight.
// Callers hold e.mu.
func (e *Engine) enqueueLocked(path, dst string) bool {
	key := path + "\x00" + dst
	if _, busy := e.inflight[key]; busy {
		e.dedupSkips.Add(1)
		return false
	}
	e.inflight[key] = struct{}{}
	e.pending++
	e.queue = append(e.queue, job{path: path, dst: dst})
	e.work.Signal()
	return true
}

// Reconcile re-examines every cataloged path — the convergence sweep
// run after a site revival or a policy change.
func (e *Engine) Reconcile() {
	for _, path := range e.catalog.Paths() {
		e.Ensure(path)
	}
}

// Wait blocks until every scheduled job has finished (the engine's
// quiescence barrier).
func (e *Engine) Wait() {
	e.mu.Lock()
	for e.pending > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.work.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()

		e.process(j)

		e.mu.Lock()
		delete(e.inflight, j.path+"\x00"+j.dst)
		e.pending--
		if e.pending == 0 {
			e.idle.Broadcast()
		}
		e.mu.Unlock()
	}
}

// process drives one (path, dst) job to a verified replica or
// records the failure. The catalog state it leaves behind is always
// re-schedulable: anything short of Valid is picked up by the next
// Ensure/Reconcile because the singleflight entry is gone.
func (e *Engine) process(j job) {
	dst, ok := e.sites[j.dst]
	if !ok {
		e.failures.Add(1)
		return
	}
	if _, has := e.catalog.Get(j.path, j.dst); !has {
		e.catalog.Set(j.path, Replica{Site: j.dst, State: Pending})
	}
	if dst.IsDown() {
		// The replica keeps its state: a Stale one still holds its
		// bytes, and a reader may need them as the last resort once
		// the site is back.
		e.failures.Add(1)
		return
	}

	want, known := e.catalog.Digest(j.path)

	// Cheap path: the destination may already hold the bytes (a
	// stale replica that survived an outage, a recovered partial
	// world). A checksum match revalidates without moving a byte —
	// this is what makes revive-convergence transfer-free.
	if known {
		got, err := e.verifySite(dst, j.path)
		if err == nil && got.Sum == want.Sum {
			e.catalog.Set(j.path, validReplica(j.dst, got))
			e.reverifies.Add(1)
			return
		}
		if errors.Is(err, ErrSiteDown) {
			// The site died under the verify, which proves nothing
			// about its bytes: do not overwrite what may be an intact
			// replica (a reader could be streaming it); the next Ensure
			// verifies again.
			e.failures.Add(1)
			return
		}
	}

	var lastErr error
	for attempt := 0; attempt < e.cfg.Retries; attempt++ {
		if attempt > 0 {
			e.retries.Add(1)
		}
		lastErr = e.copyOnce(j.path, dst, want.Sum, want.Size, attempt)
		if lastErr == nil {
			return
		}
		if errors.Is(lastErr, ErrSiteDown) && dst.IsDown() {
			break // destination died; retrying cannot help until revival
		}
	}
	st := Pending
	if errors.Is(lastErr, ErrChecksum) {
		st = Stale
	} else if rep, _ := e.catalog.Get(j.path, j.dst); rep.State == Stale {
		// copyOnce marks Copying once it has cleared the destination;
		// still Stale means no attempt got that far and the old bytes
		// are in place, so the replica stays readable as a last resort.
		st = Stale
	}
	e.catalog.Mark(j.path, j.dst, st, lastErr.Error())
	e.failures.Add(1)
}

// validReplica is the catalog record of a copy whose hash pass gave d.
func validReplica(site string, d adal.Digest) Replica {
	return Replica{Site: site, State: Valid, Size: d.Size, Checksum: d.Sum, Chain: d.Chain}
}

// verifySite re-hashes the site's copy of path and returns its
// digest, or the open/read error that stopped it.
func (e *Engine) verifySite(s *Site, path string) (adal.Digest, error) {
	r, err := s.open(path)
	if err != nil {
		return adal.Digest{}, err
	}
	defer r.Close()
	h := adal.NewChainHasher()
	if _, err := adal.PooledCopy(h, r); err != nil {
		return adal.Digest{}, err
	}
	return h.Digest(), nil
}

// pairSlot returns the semaphore bounding concurrent transfers on
// one ordered site pair.
func (e *Engine) pairSlot(src, dst string) chan struct{} {
	key := [2]string{src, dst}
	e.pairMu.Lock()
	defer e.pairMu.Unlock()
	ch, ok := e.pairSlots[key]
	if !ok {
		ch = make(chan struct{}, e.cfg.PairStreams)
		e.pairSlots[key] = ch
	}
	return ch
}

// sources returns the sites path can be copied from, excluding dst:
// reachable valid replicas first (nearest first, rotated by attempt
// so retries spread across sources), then — only when the copy will
// be verified against a recorded checksum — reachable stale replicas
// (their bytes are suspect, but a transfer whose end-to-end hash
// matches proves them good; this is what lets a path whose every
// valid replica died converge from a surviving stale copy), then
// unreachable valid replicas as a last resort.
func (e *Engine) sources(path, dst string, attempt int, verified bool) []*Site {
	stateOn := make(map[string]State)
	for _, rep := range e.catalog.Replicas(path) {
		stateOn[rep.Site] = rep.State
	}
	var upValid, upStale, downValid []*Site
	for _, s := range e.order {
		if s.Name == dst {
			continue
		}
		switch st, has := stateOn[s.Name]; {
		case !has:
		case st == Valid && !s.IsDown():
			upValid = append(upValid, s)
		case st == Valid:
			downValid = append(downValid, s)
		case st == Stale && verified && !s.IsDown():
			upStale = append(upStale, s)
		}
	}
	if len(upValid) > 1 && attempt > 0 {
		rot := attempt % len(upValid)
		upValid = append(upValid[rot:], upValid[:rot]...)
	}
	return append(append(upValid, upStale...), downValid...)
}

// copyOnce performs one transfer attempt: a chunked, hashed,
// WAN-paced stream from the nearest valid source into dst. A source
// that dies mid-copy is failed over — the next source is opened and
// fast-forwarded to the current offset, resuming the same
// destination stream rather than restarting it. Any terminal error
// removes the partial destination object.
func (e *Engine) copyOnce(path string, dst *Site, wantSum string, wantSize units.Bytes, attempt int) error {
	srcs := e.sources(path, dst.Name, attempt, wantSum != "")
	if len(srcs) == 0 {
		return fmt.Errorf("%w: %s", ErrNoSource, path)
	}
	src := srcs[0]

	// The pair slot models the WAN circuit of the *initiating* pair
	// and is held for the whole attempt; a mid-copy source failover
	// re-pays the new pair's latency (below) but does not re-queue on
	// the new pair's slot — swapping semaphores mid-stream risks
	// deadlock against other transfers doing the same, and failover
	// is the rare path.
	slot := e.pairSlot(src.Name, dst.Name)
	slot <- struct{}{}
	defer func() { <-slot }()

	wan := e.cfg.WAN
	if d := wan.Latency(src.Name, dst.Name); d > 0 {
		wan.sleep(d)
	}

	r, err := src.open(path)
	if err != nil {
		return fmt.Errorf("replication: source %s: %w", src.Name, err)
	}
	defer func() {
		if r != nil {
			r.Close()
		}
	}()

	// A previous failed attempt (or a stale replica being refreshed)
	// may have left an object behind; clear it so Create succeeds.
	// All destination cleanup goes through the site gate: a site that
	// dies mid-transfer keeps its bytes, like a site behind a severed
	// WAN link.
	if _, err := dst.stat(path); err == nil {
		_ = dst.remove(path)
	}
	w, err := dst.create(path)
	if err != nil {
		return fmt.Errorf("replication: destination %s: %w", dst.Name, err)
	}
	e.catalog.Mark(path, dst.Name, Copying, "")

	fail := func(err error) error {
		w.Close()
		_ = dst.remove(path)
		return err
	}

	h := adal.NewChainHasher()
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	var buf []byte
	if int(e.cfg.ChunkSize) <= len(*bp) {
		buf = (*bp)[:e.cfg.ChunkSize]
	} else {
		// Chunks larger than the pool unit are allocated per transfer.
		buf = make([]byte, e.cfg.ChunkSize)
	}
	var copied int64
	srcIdx := 0
	for {
		n, rerr := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return fail(fmt.Errorf("replication: writing %s to %s: %w", path, dst.Name, werr))
			}
			h.Write(buf[:n])
			copied += int64(n)
			wan.Pace(src.Name, dst.Name, n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// The source died mid-copy. Resume from the next valid
			// source at the current offset instead of restarting the
			// transfer.
			next, nr, ferr := e.failoverSource(path, dst.Name, srcs, &srcIdx, copied)
			if ferr != nil {
				return fail(fmt.Errorf("replication: reading %s from %s: %w (no resume source)", path, src.Name, rerr))
			}
			e.sourceFailovers.Add(1)
			r.Close()
			r, src = nr, next
			// Stream setup on the new pair costs its latency; the
			// fast-forward itself is a ranged read (no WAN pacing —
			// the skipped prefix never crosses the link again).
			if d := wan.Latency(src.Name, dst.Name); d > 0 {
				wan.sleep(d)
			}
			continue
		}
	}
	if err := w.Close(); err != nil {
		_ = dst.remove(path)
		return fmt.Errorf("replication: committing %s on %s: %w", path, dst.Name, err)
	}

	got := h.Digest()
	if wantSum != "" && got.Sum != wantSum {
		_ = dst.remove(path)
		return fmt.Errorf("%w: %s on %s: got %.12s want %.12s", ErrChecksum, path, dst.Name, got.Sum, wantSum)
	}
	if wantSize > 0 && units.Bytes(copied) != wantSize {
		_ = dst.remove(path)
		return fmt.Errorf("%w: %s on %s: got %d bytes want %d", ErrChecksum, path, dst.Name, copied, wantSize)
	}
	e.catalog.Set(path, validReplica(dst.Name, got))
	e.transfers.Add(1)
	e.transferBytes.Add(copied)
	// A verified single-source copy also proved the source's bytes:
	// if that source was a stale replica, it just revalidated itself.
	if srcIdx == 0 && wantSum != "" {
		if rep, ok := e.catalog.Get(path, src.Name); ok && rep.State == Stale {
			e.catalog.Set(path, validReplica(src.Name, got))
			e.reverifies.Add(1)
		}
	}
	return nil
}

// failoverSource opens the next source after *idx and fast-forwards
// it to offset, advancing *idx past sources that fail.
func (e *Engine) failoverSource(path, dst string, srcs []*Site, idx *int, offset int64) (*Site, io.ReadCloser, error) {
	for *idx++; *idx < len(srcs); *idx++ {
		s := srcs[*idx]
		r, err := s.openAt(path, offset)
		if err != nil {
			continue
		}
		return s, r, nil
	}
	return nil, nil, ErrNoSource
}

// Verify re-hashes every replica of path against the recorded
// checksum, marking mismatches Stale and scheduling their refresh.
// It returns the number of replicas confirmed valid.
func (e *Engine) Verify(path string) (int, error) {
	want, known := e.catalog.Digest(path)
	if !known {
		return 0, fmt.Errorf("replication: no recorded checksum for %s", path)
	}
	valid := 0
	dirty := false
	for _, rep := range e.catalog.Replicas(path) {
		s, ok := e.sites[rep.Site]
		if !ok || s.IsDown() {
			continue
		}
		if rep.State != Valid && rep.State != Stale {
			continue
		}
		got, err := e.verifySite(s, path)
		if err == nil && got.Sum == want.Sum {
			e.catalog.Set(path, validReplica(rep.Site, got))
			valid++
		} else {
			e.catalog.Mark(path, rep.Site, Stale, "verify: checksum mismatch or unreadable")
			dirty = true
		}
	}
	if dirty {
		e.Ensure(path)
	}
	return valid, nil
}
