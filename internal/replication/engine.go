package replication

import (
	"context"
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
var ErrChecksum = adal.ErrChecksum

// ErrNoSource is returned when a transfer finds no replica to copy
// from (every other holder is down, lost or unreadable).
var ErrNoSource = errors.New("replication: no valid source replica")

// Config tunes an Engine.
type Config struct {
	// Meta is the replica catalogue the engine converges, keyed by
	// federated path. Required. The engine subscribes to it for
	// EventCreated under MountPrefix: new datasets are replicated as
	// they are registered, with no polling.
	Meta *metadata.Store
	// MountPrefix is the federation's mount point in the ADAL
	// namespace (e.g. "/sites"): prepended to a backend-relative path
	// it gives the path's key in Meta.
	MountPrefix string
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
	// WAN, when set, paces transfers by per-site-pair bandwidth and
	// latency. nil means LAN-speed copies.
	WAN *WAN
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

// job is one (path, site) transfer; key is the path's federated key.
type job struct {
	key string
	dst string
}

// Engine converges the catalogue toward MinReplicas valid replicas per
// path with a pool of transfer workers. Ensure (and the metadata
// subscription feeding it) is cheap and non-blocking: it schedules
// jobs into an unbounded queue guarded by a per-(path, site)
// singleflight, so repeated triggers for the same replica — a create
// event racing a rules action racing a read-failure requeue — cost
// one transfer. Wait is the quiescence barrier; Reconcile re-examines
// every catalogued path (the site-revive entry point).
//
// Internally a path is its federated key, computed once per operation;
// the backend-relative path a site is addressed by is a slice of it.
type Engine struct {
	cfg   Config
	meta  *metadata.Store
	sites map[string]*Site
	order []*Site // nearest first

	mu       sync.Mutex
	queue    []job
	inflight map[string]struct{} // key+"\x00"+site
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

// NewEngine builds an engine over the sites and starts its workers.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Meta == nil {
		return nil, errors.New("replication: Config.Meta is required")
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
	e := &Engine{
		cfg:       cfg,
		meta:      cfg.Meta,
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
	e.unsub = cfg.Meta.Subscribe(e.onEvent)
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
		delete(e.inflight, j.key+"\x00"+j.dst)
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
	if e.cfg.MountPrefix == "" || strings.HasPrefix(fed, e.cfg.MountPrefix+"/") {
		e.ensure(fed)
	}
}

// key is the federated key of a backend-relative path.
func (e *Engine) key(path string) string { return e.cfg.MountPrefix + path }

// rel is the backend-relative path of a federated key.
func (e *Engine) rel(key string) string { return key[len(e.cfg.MountPrefix):] }

// Ensure schedules whatever transfers the backend-relative path needs
// to reach the engine's MinReplicas target (capped at the site count).
// It never blocks on transfer work, and schedules nothing for a path the
// catalogue does not know. Replica selection prefers refreshing an
// existing stale or lost replica on a reachable site (often a cheap
// re-verify, never a duplicate copy) over opening a new site.
func (e *Engine) Ensure(path string) { e.ensure(e.key(path)) }

func (e *Engine) ensure(key string) {
	reps := e.meta.Replicas(key)
	if reps == nil {
		return
	}
	bySite := make(map[string]metadata.ReplicaState, len(reps))
	for _, r := range reps {
		bySite[r.Site] = r.State
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	// A site counts toward the target if it holds a valid replica or
	// has a job in flight (which will make it valid, or fail and be
	// requeued by a later Ensure). The in-flight check must not
	// depend on a catalogue entry existing — the Pending entry is made
	// when the job starts — and counting only catalogued sites here
	// would let an Ensure storm schedule surplus.
	good := 0
	busy := func(site string) bool {
		_, b := e.inflight[key+"\x00"+site]
		return b
	}
	for _, s := range e.order {
		if bySite[s.Name] == metadata.ReplicaValid || busy(s.Name) {
			good++
		}
	}
	if good >= e.cfg.MinReplicas {
		return
	}
	// Refresh existing non-valid replicas on reachable sites first,
	// nearest first; then open new replicas on reachable sites
	// without one.
	var targets []string
	for _, s := range e.order {
		st, has := bySite[s.Name]
		if has && st != metadata.ReplicaValid && !s.IsDown() && !busy(s.Name) {
			targets = append(targets, s.Name)
		}
	}
	for _, s := range e.order {
		if _, has := bySite[s.Name]; !has && !s.IsDown() && !busy(s.Name) {
			targets = append(targets, s.Name)
		}
	}
	for _, dst := range targets {
		if good >= e.cfg.MinReplicas {
			return
		}
		if e.enqueueLocked(key, dst) {
			good++
		}
	}
}

// enqueueLocked schedules one (path, dst) job under the singleflight.
// Callers hold e.mu.
func (e *Engine) enqueueLocked(key, dst string) bool {
	flight := key + "\x00" + dst
	if _, busy := e.inflight[flight]; busy {
		e.dedupSkips.Add(1)
		return false
	}
	e.inflight[flight] = struct{}{}
	e.pending++
	e.queue = append(e.queue, job{key: key, dst: dst})
	e.work.Signal()
	return true
}

// Reconcile re-examines every catalogued path under the federation
// mount — the convergence sweep run after a site revival or a policy
// change.
func (e *Engine) Reconcile() {
	for _, key := range e.meta.ReplicaPaths() {
		e.EnsureFederated(key)
	}
}

// Wait blocks until every scheduled job has finished (the engine's
// quiescence barrier) and the Valid notes they staged are durable.
func (e *Engine) Wait() {
	e.mu.Lock()
	for e.pending > 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
	_ = e.meta.Sync()
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
		delete(e.inflight, j.key+"\x00"+j.dst)
		e.pending--
		if e.pending == 0 {
			e.idle.Broadcast()
		}
		e.mu.Unlock()
	}
}

// process drives one (path, dst) job to a verified replica or
// records the failure. The catalogue state it leaves behind is always
// re-schedulable: anything short of Valid is picked up by the next
// Ensure/Reconcile because the singleflight entry is gone. A path
// removed before the job starts is left alone.
func (e *Engine) process(j job) {
	dst, ok := e.sites[j.dst]
	if !ok {
		e.failures.Add(1)
		return
	}
	if _, has := e.meta.Replica(j.key, j.dst); !has && !e.meta.SetReplica(j.key, j.dst, metadata.ReplicaPending) {
		return
	}
	if dst.IsDown() {
		// The replica keeps its state: a Stale one still holds its
		// bytes, and a reader may need them as the last resort once
		// the site is back.
		e.failures.Add(1)
		return
	}

	want, known := e.meta.Digest(j.key)

	// Cheap path: the destination may already hold the bytes (a
	// stale replica that survived an outage, a recovered partial
	// world). A digest match revalidates without moving a byte —
	// this is what makes revive-convergence transfer-free.
	if known {
		err := e.verifySite(dst, j.key, want)
		if err == nil {
			e.meta.SetReplicaValid(j.key, j.dst, want)
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
		lastErr = e.copyOnce(j.key, dst, want)
		if lastErr == nil || errors.Is(lastErr, errRemoved) {
			return
		}
		if errors.Is(lastErr, ErrSiteDown) && dst.IsDown() {
			break // destination died; retrying cannot help until revival
		}
	}
	st := metadata.ReplicaPending
	if cur, _ := e.meta.Replica(j.key, j.dst); cur == metadata.ReplicaStale {
		// copyOnce marks Copying once it has cleared the destination;
		// still Stale means no attempt got that far and the old bytes
		// are in place, so the replica stays readable as a last resort.
		// A destination a failed attempt cleared holds nothing to read,
		// whatever failed — a checksum included, which convicts the
		// source, not this site.
		st = metadata.ReplicaStale
	}
	e.meta.SetReplica(j.key, j.dst, st)
	e.failures.Add(1)
}

// errRemoved ends a job whose path was removed while it copied, or
// removed and created again: its commit checked the old bytes.
var errRemoved = errors.New("replication: path removed during the copy")

// verifySite scrubs the site's copy of key against want, stopping at
// the first block off its chain: nil, or the open, read or checksum
// error that stopped it.
func (e *Engine) verifySite(s *Site, key string, want adal.Digest) error {
	r, err := s.openAt(e.rel(key), 0)
	if err != nil {
		return err
	}
	defer r.Close()
	_, err = adal.Transfer(context.TODO(), io.Discard, r, want)
	return err
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

// copyOnce performs one transfer attempt: adal.Transfer, WAN-paced,
// from a failoverReader over every other holder of the path into dst.
// The copy reads as a client does — nearest valid replica first, a
// source that fails marked and re-queued, the stream resumed on the
// next at the same offset — except that stale replicas are offered only
// when want can convict them. Any terminal error removes the partial
// destination object, and so does a commit the catalogue refuses: the
// path was removed — and maybe created again, with other bytes — while
// its bytes moved (errRemoved).
func (e *Engine) copyOnce(key string, dst *Site, want adal.Digest) error {
	path := e.rel(key)
	src := &failoverReader{
		eng: e, key: key, remain: -1, stale: want.Sum != "",
		switched: &e.sourceFailovers, tried: map[string]bool{dst.Name: false},
	}
	if err := src.switchSource(); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrNoSource, path, err)
	}
	defer src.Close()

	// The pair slot models the WAN circuit of the *initiating* pair
	// and is held for the whole attempt; a mid-copy source failover
	// re-pays the new pair's latency but does not re-queue on the new
	// pair's slot — swapping semaphores mid-stream risks deadlock
	// against other transfers doing the same, and failover is the rare
	// path.
	slot := e.pairSlot(src.site.Name, dst.Name)
	slot <- struct{}{}
	defer func() { <-slot }()

	// All destination cleanup goes through the site gate: a site that
	// dies mid-transfer keeps its bytes, like a site behind a severed
	// WAN link.
	w, err := dst.createFresh(path)
	if err != nil {
		return fmt.Errorf("replication: destination %s: %w", dst.Name, err)
	}
	e.meta.SetReplica(key, dst.Name, metadata.ReplicaCopying)

	got, err := adal.Transfer(context.TODO(), &pacedWriter{w: w, wan: e.cfg.WAN, src: src, dst: dst.Name}, src, want)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = dst.remove(path)
		// One source served every byte of a copy that failed its check:
		// that replica is the corrupt one.
		if src.sources == 1 && errors.Is(err, ErrChecksum) {
			e.noteFailure(src.served, key, err)
		}
		return fmt.Errorf("replication: copying %s to %s: %w", path, dst.Name, err)
	}
	if !e.meta.SetReplicaValid(key, dst.Name, got) {
		_ = dst.remove(path)
		return fmt.Errorf("%w: %s", errRemoved, path)
	}
	e.transfers.Add(1)
	e.transferBytes.Add(int64(got.Size))
	// A verified single-source copy also proved the source's bytes:
	// if that source was a stale replica, it just revalidated itself.
	if src.sources == 1 && want.Sum != "" {
		if st, _ := e.meta.Replica(key, src.served.Name); st == metadata.ReplicaStale {
			e.meta.SetReplicaValid(key, src.served.Name, want)
			e.reverifies.Add(1)
		}
	}
	return nil
}

// pacedWriter charges the WAN for what a copy writes: the latency of
// the source's link to dst when the stream starts and again whenever
// the reader has switched sites (the resume is a ranged open — the
// skipped prefix never crosses the link again), and each block's time
// on that link.
type pacedWriter struct {
	w    io.Writer
	wan  *WAN
	src  *failoverReader
	dst  string
	from *Site // the source as of the last block
}

func (p *pacedWriter) Write(b []byte) (int, error) {
	if s := p.src.site; s != p.from {
		p.from = s
		if d := p.wan.Latency(s.Name, p.dst); d > 0 {
			p.wan.sleep(d)
		}
	}
	n, err := p.w.Write(b)
	p.wan.Pace(p.from.Name, p.dst, n)
	return n, err
}

// Verify re-hashes every replica of the backend-relative path against
// its digest, marking mismatches Stale and scheduling their refresh.
// It returns the number of replicas confirmed valid.
func (e *Engine) Verify(path string) (int, error) {
	key := e.key(path)
	want, known := e.meta.Digest(key)
	if !known {
		return 0, fmt.Errorf("replication: no recorded digest for %s", path)
	}
	valid := 0
	dirty := false
	for _, rep := range e.meta.Replicas(key) {
		s, ok := e.sites[rep.Site]
		if !ok || s.IsDown() {
			continue
		}
		if rep.State != metadata.ReplicaValid && rep.State != metadata.ReplicaStale {
			continue
		}
		if err := e.verifySite(s, key, want); err == nil {
			e.meta.SetReplicaValid(key, rep.Site, want)
			valid++
		} else {
			e.meta.SetReplica(key, rep.Site, metadata.ReplicaStale)
			dirty = true
		}
	}
	if dirty {
		e.ensure(key)
	}
	return valid, nil
}
