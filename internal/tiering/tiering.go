package tiering

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

// ErrPinned is returned when a migration is requested for a pinned
// file.
var ErrPinned = errors.New("tiering: file is pinned")

// ErrBusy is returned when a forced transition races an in-flight one.
var ErrBusy = errors.New("tiering: transition in flight")

// ErrChecksum is returned when a tier copy does not match the
// recorded content hash.
var ErrChecksum = adal.ErrChecksum

// Config tunes a TierBackend.
type Config struct {
	// Policy sets the watermarks, minimum age and scan period. A zero
	// Policy takes DefaultPolicy.
	Policy Policy
	// HotCapacity is the hot tier's capacity for utilization
	// accounting. 0 disables watermark-driven migration (manual
	// Migrate/Premigrate still work — the lsdfctl mode).
	HotCapacity units.Bytes
	// MigrationWorkers sizes the background migration pool (default 2).
	MigrationWorkers int
	// Meta, when set, receives a placement event on the metadata bus
	// for every state transition (metadata.EventPlacement).
	Meta *metadata.Store
	// MountPrefix is prepended to backend-relative paths in placement
	// events so they match the federated paths ingest registers.
	MountPrefix string
	// Clock injects a timestamp source (default time.Now).
	Clock func() time.Time
}

// entry is the authoritative placement record of one object.
type entry struct {
	size       units.Bytes
	modTime    time.Time
	created    time.Time
	lastAccess time.Time
	state      State
	checksum   string // hex SHA-256 of the content; learned at write or first copy
	pinned     bool
	migrating  bool // a premigrate/migrate transition is in flight
	writing    bool // Create issued, Close not yet seen
}

// opKind classifies a per-path exclusive transition.
type opKind int

const (
	opRecall opKind = iota
	opStubSwap
)

// op serializes Open/Remove against a transition that makes the hot
// copy temporarily inconsistent (recall rewriting the stub, migration
// swapping bytes for a stub). Readers wait on done and re-examine the
// entry's state — that re-check loop is what makes concurrent readers
// of a migrated path share one recall.
type op struct {
	kind opKind
	done chan struct{}
	err  error
}

// TierBackend federates a hot and a cold adal.Backend behind the
// plain Backend contract. All methods are safe for concurrent use.
//
// Lock ordering: mu is never held across backend I/O. Transitions
// that rewrite the hot copy register an op (per path) first; Open and
// Remove wait for in-flight ops before acting on the path.
type TierBackend struct {
	name string
	hot  adal.Backend
	cold adal.Backend

	pol      Policy
	capacity units.Bytes
	meta     *metadata.Store
	prefix   string
	clock    func() time.Time

	mu         sync.Mutex
	idle       *sync.Cond // broadcast when pendingMig drops to zero
	files      map[string]*entry
	ops        map[string]*op
	hotUsed    units.Bytes // logical data bytes on the hot tier (stubs excluded)
	pendingMig int         // queued + running migration jobs
	closed     bool

	jobs   chan string
	scanCh chan struct{}
	quit   chan struct{}
	wg     sync.WaitGroup

	// counters (lock-free reads via Stats)
	migrations    atomic.Uint64
	premigrations atomic.Uint64
	recalls       atomic.Uint64
	recallErrors  atomic.Uint64
	migratedBytes atomic.Int64
	recallBytes   atomic.Int64
	recallWaitNs  atomic.Int64
}

var _ adal.Backend = (*TierBackend)(nil)

// New builds a tier over hot and cold and starts the background
// migration machinery. Existing hot-tier objects are recovered into
// the placement map: small objects carrying the stub magic become
// Migrated entries (their metadata read back from the stub), all
// others Resident.
func New(name string, hot, cold adal.Backend, cfg Config) (*TierBackend, error) {
	if cfg.Policy == (Policy{}) {
		cfg.Policy = DefaultPolicy()
	}
	if cfg.MigrationWorkers <= 0 {
		cfg.MigrationWorkers = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	t := &TierBackend{
		name:     name,
		hot:      hot,
		cold:     cold,
		pol:      cfg.Policy,
		capacity: cfg.HotCapacity,
		meta:     cfg.Meta,
		prefix:   cfg.MountPrefix,
		clock:    cfg.Clock,
		files:    make(map[string]*entry),
		ops:      make(map[string]*op),
		jobs:     make(chan string, 1024),
		scanCh:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	t.idle = sync.NewCond(&t.mu)
	if err := t.recover(); err != nil {
		return nil, err
	}
	t.wg.Add(1)
	go t.scanner()
	for i := 0; i < cfg.MigrationWorkers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	// Recovery may have rebuilt a hot tier already past the
	// watermark; wake the scanner rather than waiting for a write.
	t.maybeScan()
	return t, nil
}

// recover rebuilds the placement map from the hot tier: the stub
// format is self-describing precisely so that no side database is
// needed to survive a restart (the lsdfctl persistence model).
func (t *TierBackend) recover() error {
	infos, err := t.hot.List("/")
	if err != nil {
		return fmt.Errorf("tiering: recovering %s: %w", t.name, err)
	}
	now := t.clock()
	for _, info := range infos {
		e := &entry{
			size:       info.Size,
			modTime:    info.ModTime,
			created:    info.ModTime,
			lastAccess: info.ModTime,
			state:      Resident,
		}
		if e.modTime.IsZero() {
			e.created, e.lastAccess = now, now
		}
		if info.Size <= maxStubSize {
			if stub, ok := t.sniffStub(info.Path); ok {
				e.size = stub.size
				e.checksum = stub.checksum
				e.modTime = stub.modTime
				e.state = Migrated
			}
		}
		if e.state != Migrated {
			t.hotUsed += e.size
		}
		t.files[info.Path] = e
	}
	return nil
}

func (t *TierBackend) sniffStub(path string) (stubInfo, bool) {
	r, err := t.hot.Open(path)
	if err != nil {
		return stubInfo{}, false
	}
	defer r.Close()
	data, err := io.ReadAll(io.LimitReader(r, maxStubSize+1))
	if err != nil || len(data) > maxStubSize {
		return stubInfo{}, false
	}
	return decodeStub(data)
}

// Close stops the scanner and the migration workers, waiting for
// in-flight transitions to finish; queued-but-unstarted migrations
// are abandoned (their files stay in their current state).
func (t *TierBackend) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	close(t.quit)
	t.wg.Wait()
	for {
		select {
		case path := <-t.jobs:
			t.mu.Lock()
			if e := t.files[path]; e != nil {
				e.migrating = false
			}
			t.pendingMig--
			if t.pendingMig == 0 {
				t.idle.Broadcast()
			}
			t.mu.Unlock()
		default:
			return
		}
	}
}

// Name implements adal.Backend.
func (t *TierBackend) Name() string { return t.name }

// event publishes a placement transition on the metadata bus.
func (t *TierBackend) event(path string, st State) {
	if t.meta == nil {
		return
	}
	t.meta.NotePlacement(t.prefix+path, st.String())
}

// Create implements adal.Backend. The name is reserved immediately
// (concurrent creators collide here); the entry becomes visible once
// the writer is closed, with size and SHA-256 recorded for later
// migration verification.
func (t *TierBackend) Create(path string) (io.WriteCloser, error) {
	now := t.clock()
	t.mu.Lock()
	if _, ok := t.files[path]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s:%s", adal.ErrExists, t.name, path)
	}
	t.files[path] = &entry{state: Resident, writing: true, created: now}
	t.mu.Unlock()
	w, err := t.hot.Create(path)
	if err != nil {
		t.mu.Lock()
		delete(t.files, path)
		t.mu.Unlock()
		return nil, err
	}
	return adal.NewChecksumWriter(w, func(d adal.Digest, err error) error {
		if err != nil {
			// The hot object's state is unknown; drop the reservation and
			// make a best effort to clear the partial object.
			t.mu.Lock()
			delete(t.files, path)
			t.mu.Unlock()
			_ = t.hot.Remove(path)
			return err
		}
		now := t.clock()
		t.mu.Lock()
		if e := t.files[path]; e != nil {
			e.size = d.Size
			e.checksum = d.Sum
			e.modTime = now
			e.lastAccess = now
			e.writing = false
			t.hotUsed += e.size
		}
		t.mu.Unlock()
		t.event(path, Resident)
		t.maybeScan()
		return nil
	}), nil
}

// Open implements adal.Backend. Opening a migrated path triggers a
// transparent recall: the first reader becomes the recall leader,
// concurrent readers wait on the same op and share its result (the
// Recalls counter moves once per cold read, not once per reader).
func (t *TierBackend) Open(path string) (io.ReadCloser, error) {
	for {
		t.mu.Lock()
		e, ok := t.files[path]
		if !ok || e.writing {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
		}
		e.lastAccess = t.clock()
		if o := t.ops[path]; o != nil {
			kind := o.kind
			t.mu.Unlock()
			start := time.Now()
			<-o.done
			if kind == opRecall {
				t.recallWaitNs.Add(time.Since(start).Nanoseconds())
			}
			continue // re-examine the state the op left behind
		}
		if e.state != Migrated {
			t.mu.Unlock()
			r, err := t.hot.Open(path)
			// The hot open ran outside mu: a stub swap (or a recall's
			// rewrite) may have replaced the object in that window,
			// handing us stub bytes or a not-found. Re-examine; only a
			// result obtained with no transition in sight is valid.
			t.mu.Lock()
			e2, ok := t.files[path]
			raced := t.ops[path] != nil || (ok && e2.state == Migrated)
			t.mu.Unlock()
			if !ok {
				if r != nil {
					r.Close()
				}
				return nil, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
			}
			if !raced {
				return r, err // clean window: genuine backend outcome
			}
			if r != nil {
				r.Close()
			}
			continue // wait out the transition and re-resolve
		}
		o := &op{kind: opRecall, done: make(chan struct{})}
		t.ops[path] = o
		stub := stubInfo{size: e.size, checksum: e.checksum, modTime: e.modTime}
		t.mu.Unlock()

		start := time.Now()
		err := t.doRecall(path, stub)
		t.finishOp(path, o, err)
		t.recallWaitNs.Add(time.Since(start).Nanoseconds())
		if err != nil {
			t.recallErrors.Add(1)
			return nil, err
		}
	}
}

// doRecall brings the cold bytes back to the hot tier and flips the
// entry to Premigrated (the cold copy remains valid until the file
// is next rewritten). Recalled bytes count toward the watermark, so
// a recall burst can wake the scanner just like a write burst.
func (t *TierBackend) doRecall(path string, stub stubInfo) error {
	if err := t.copyColdToHot(path, stub); err != nil {
		return err
	}
	t.mu.Lock()
	if e := t.files[path]; e != nil {
		e.state = Premigrated
		t.hotUsed += stub.size
	}
	t.mu.Unlock()
	t.recalls.Add(1)
	t.recallBytes.Add(int64(stub.size))
	t.event(path, Premigrated)
	t.maybeScan()
	return nil
}

// moveObject is the one tier move: it streams from's copy of path over
// whatever to holds there, checked against want as it lands (memory
// stays one block, whatever the object's size), and clears a failed
// copy's partial destination. What the failure owes the namespace —
// a stub back, a migrating flag cleared — is the caller's.
func moveObject(from, to adal.Backend, path string, want adal.Digest) (adal.Digest, error) {
	r, err := from.Open(path)
	if err != nil {
		return adal.Digest{}, err
	}
	defer r.Close()
	if err := to.Remove(path); err != nil && !errors.Is(err, adal.ErrNotFound) {
		return adal.Digest{}, fmt.Errorf("clearing the destination: %w", err)
	}
	w, err := to.Create(path)
	if err != nil {
		return adal.Digest{}, err
	}
	got, err := adal.Transfer(context.TODO(), w, r, want)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = to.Remove(path)
	}
	return got, err
}

// copyColdToHot moves the cold copy over the hot object (stub or
// absent), verifying the recorded checksum. On any failure the hot
// namespace is restored to a stub (a no-op while the old one is still
// there), so the tier's restart-recovery invariant (every migrated
// object is represented by its stub) survives partial recalls.
func (t *TierBackend) copyColdToHot(path string, stub stubInfo) error {
	_, err := moveObject(t.cold, t.hot, path, adal.Digest{Size: stub.size, Sum: stub.checksum})
	if err != nil {
		_ = t.writeStub(path, stub)
		return fmt.Errorf("tiering: recall %s: %w", path, err)
	}
	return nil
}

// writeStub creates a migrated file's stub in the hot namespace, which
// keeps the hot tier self-describing for restart recovery.
func (t *TierBackend) writeStub(path string, info stubInfo) error {
	w, err := t.hot.Create(path)
	if err != nil {
		return err
	}
	_, err = w.Write(encodeStub(info))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = t.hot.Remove(path)
	}
	return err
}

func (t *TierBackend) finishOp(path string, o *op, err error) {
	o.err = err
	t.mu.Lock()
	delete(t.ops, path)
	t.mu.Unlock()
	close(o.done)
}

// Stat implements adal.Backend. Migrated files report their logical
// size and original modification time; where the bytes are is the
// Placement fact.
func (t *TierBackend) Stat(path string) (adal.FileInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.files[path]
	if !ok || e.writing {
		return adal.FileInfo{}, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
	}
	return adal.FileInfo{Path: path, Size: e.size, ModTime: e.modTime, Placement: e.state.String()}, nil
}

// List implements adal.Backend, reporting logical sizes regardless of
// placement.
func (t *TierBackend) List(prefix string) ([]adal.FileInfo, error) {
	t.mu.Lock()
	out := make([]adal.FileInfo, 0, len(t.files))
	for p, e := range t.files {
		if e.writing || !strings.HasPrefix(p, prefix) {
			continue
		}
		out = append(out, adal.FileInfo{Path: p, Size: e.size, ModTime: e.modTime})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Remove implements adal.Backend, deleting the object from both tiers.
func (t *TierBackend) Remove(path string) error {
	for {
		t.mu.Lock()
		e, ok := t.files[path]
		if !ok || e.writing {
			t.mu.Unlock()
			return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
		}
		if o := t.ops[path]; o != nil {
			t.mu.Unlock()
			<-o.done
			continue
		}
		delete(t.files, path)
		if e.state != Migrated {
			t.hotUsed -= e.size
		}
		st := e.state
		t.mu.Unlock()
		if err := t.hot.Remove(path); err != nil && !errors.Is(err, adal.ErrNotFound) {
			return err
		}
		if st != Resident {
			if err := t.cold.Remove(path); err != nil && !errors.Is(err, adal.ErrNotFound) {
				return err
			}
		}
		return nil
	}
}

// Pin exempts a file from migration; a pinned premigrated or
// migrated file keeps its current placement but will not move
// further toward tape.
func (t *TierBackend) Pin(path string) error { return t.setPin(path, true) }

// Unpin re-admits a file to migration.
func (t *TierBackend) Unpin(path string) error { return t.setPin(path, false) }

func (t *TierBackend) setPin(path string, pinned bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.files[path]
	if !ok || e.writing {
		return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
	}
	e.pinned = pinned
	return nil
}

// State reports a file's placement state.
func (t *TierBackend) State(path string) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.files[path]
	if !ok || e.writing {
		return 0, false
	}
	return e.state, true
}

// Premigrate eagerly copies a resident file to the cold tier
// (ingest's premigrate-on-ingest mode): the file keeps its hot bytes
// but a later watermark migration degrades to a cheap stub swap.
func (t *TierBackend) Premigrate(path string) error {
	t.mu.Lock()
	e, ok := t.files[path]
	if !ok || e.writing {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
	}
	if e.state != Resident || e.migrating {
		t.mu.Unlock()
		return nil // already has (or is getting) a cold copy
	}
	e.migrating = true
	t.mu.Unlock()
	err := t.toCold(path)
	t.clearMigrating(path)
	return err
}

// toCold gives a resident file, whose migrating flag the caller holds,
// a cold copy and flips it to Premigrated; any other file it leaves
// alone. The recorded checksum is verified as the bytes land and
// learned when there is none (recovered entries have no checksum until
// their first copy).
func (t *TierBackend) toCold(path string) error {
	t.mu.Lock()
	e, ok := t.files[path]
	if !ok || e.state != Resident {
		t.mu.Unlock()
		return nil
	}
	want := adal.Digest{Size: e.size, Sum: e.checksum}
	t.mu.Unlock()

	got, err := moveObject(t.hot, t.cold, path, want)
	if err != nil {
		return fmt.Errorf("tiering: premigrate %s: %w", path, err)
	}
	t.mu.Lock()
	same := t.files[path] == e
	if same {
		e.state, e.checksum = Premigrated, got.Sum
	}
	t.mu.Unlock()
	if !same {
		_ = t.cold.Remove(path) // removed underneath us; drop the orphan copy
		return nil
	}
	t.premigrations.Add(1)
	t.event(path, Premigrated)
	return nil
}

// Migrate forces one file through the full Resident → Premigrated →
// Migrated transition, ignoring watermarks and MinAge. Pinned files
// refuse; files already migrated are a no-op.
func (t *TierBackend) Migrate(path string) error {
	t.mu.Lock()
	e, ok := t.files[path]
	if !ok || e.writing {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
	}
	if e.state == Migrated {
		t.mu.Unlock()
		return nil
	}
	if e.pinned {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrPinned, path)
	}
	if e.migrating {
		t.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrBusy, path)
	}
	e.migrating = true
	t.mu.Unlock()
	return t.migrateOne(path)
}

// migrateOne drives one file (whose migrating flag the caller has
// set) to Migrated: copy to cold if still resident, then swap the
// hot bytes for a stub under a per-path op so concurrent readers
// never observe the intermediate hole.
func (t *TierBackend) migrateOne(path string) error {
	if err := t.toCold(path); err != nil {
		t.clearMigrating(path)
		return err // stays resident; the next scan retries
	}

	// Premigrated → Migrated: replace the hot bytes with a stub.
	t.mu.Lock()
	e, ok := t.files[path]
	if !ok {
		t.mu.Unlock()
		return nil // removed while queued, or under the copy
	}
	if e.state != Premigrated || e.pinned {
		e.migrating = false
		t.mu.Unlock()
		return nil
	}
	o := &op{kind: opStubSwap, done: make(chan struct{})}
	t.ops[path] = o
	stub := stubInfo{size: e.size, checksum: e.checksum, modTime: e.modTime}
	t.mu.Unlock()

	err := t.hot.Remove(path)
	if err != nil && !errors.Is(err, adal.ErrNotFound) {
		t.mu.Lock()
		e.migrating = false
		t.mu.Unlock()
		t.finishOp(path, o, err)
		return fmt.Errorf("tiering: migrate %s: %w", path, err)
	}
	if t.writeStub(path, stub) != nil {
		// Without a stub the object would vanish from restart
		// recovery despite valid cold bytes. Put the hot bytes back
		// from the verified cold copy and stay Premigrated; the next
		// scan retries the swap.
		if rerr := t.copyColdToHot(path, stub); rerr == nil {
			t.mu.Lock()
			e.migrating = false
			t.mu.Unlock()
			t.finishOp(path, o, nil)
			return fmt.Errorf("tiering: migrate %s: stub write failed", path)
		}
		// Restore failed too (copyColdToHot retried the stub
		// itself); fall through — the in-memory entry still reaches
		// the cold bytes.
	}
	t.mu.Lock()
	e.state = Migrated
	e.migrating = false
	t.hotUsed -= stub.size
	t.mu.Unlock()
	t.migrations.Add(1)
	t.migratedBytes.Add(int64(stub.size))
	t.finishOp(path, o, nil)
	t.event(path, Migrated)
	return nil
}

func (t *TierBackend) clearMigrating(path string) {
	t.mu.Lock()
	if e := t.files[path]; e != nil {
		e.migrating = false
	}
	t.mu.Unlock()
}

// Recall ensures a file's bytes are hot-resident, sharing any
// in-flight recall with concurrent readers.
func (t *TierBackend) Recall(path string) error {
	r, err := t.Open(path)
	if err != nil {
		return err
	}
	return r.Close()
}

// maybeScan wakes the scanner when a write pushed utilization over
// the high watermark — migration is demand-driven, the periodic scan
// is only a safety net.
func (t *TierBackend) maybeScan() {
	t.mu.Lock()
	over := t.capacity > 0 && float64(t.hotUsed) > t.pol.HighWatermark*float64(t.capacity)
	t.mu.Unlock()
	if over {
		select {
		case t.scanCh <- struct{}{}:
		default:
		}
	}
}

// scanner runs watermark passes on demand (scanCh) and, when the
// policy asks for one, on a period.
func (t *TierBackend) scanner() {
	defer t.wg.Done()
	var tick <-chan time.Time
	if t.pol.ScanInterval > 0 {
		tk := time.NewTicker(t.pol.ScanInterval)
		defer tk.Stop()
		tick = tk.C
	}
	for {
		select {
		case <-t.quit:
			return
		case <-t.scanCh:
		case <-tick:
		}
		t.Scan()
	}
}

// Scan runs one migration planning pass: while hot utilization
// exceeds the high watermark, the oldest-access eligible files are
// queued for the worker pool until the projection drops below the
// low watermark (hysteresis — scans do nothing between the marks).
func (t *TierBackend) Scan() {
	t.mu.Lock()
	if t.capacity <= 0 || float64(t.hotUsed) <= t.pol.HighWatermark*float64(t.capacity) {
		t.mu.Unlock()
		return
	}
	target := units.Bytes(t.pol.LowWatermark * float64(t.capacity))
	toFree := t.hotUsed - target
	now := t.clock()
	type cand struct {
		path string
		last time.Time
		size units.Bytes
	}
	var cands []cand
	for p, e := range t.files {
		if e.migrating && e.state != Migrated {
			// Already queued by an earlier pass (or a forced Migrate)
			// and not yet subtracted from hotUsed: its bytes are as
			// good as freed. Counting them again would make overlapping
			// passes migrate past the low watermark, newest files
			// included.
			toFree -= e.size
		}
		if e.writing || e.migrating || e.pinned || e.state == Migrated {
			continue
		}
		if now.Sub(e.created) < t.pol.MinAge {
			continue
		}
		cands = append(cands, cand{p, e.lastAccess, e.size})
	}
	// Oldest access first; path breaks ties for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].last.Equal(cands[j].last) {
			return cands[i].last.Before(cands[j].last)
		}
		return cands[i].path < cands[j].path
	})
	var planned units.Bytes
	var picked []string
	for _, c := range cands {
		if planned >= toFree {
			break
		}
		planned += c.size
		t.files[c.path].migrating = true
		t.pendingMig++
		picked = append(picked, c.path)
	}
	t.mu.Unlock()
	for i, p := range picked {
		select {
		case t.jobs <- p:
		case <-t.quit:
			t.mu.Lock()
			for _, rest := range picked[i:] {
				if e := t.files[rest]; e != nil {
					e.migrating = false
				}
				t.pendingMig--
			}
			if t.pendingMig == 0 {
				t.idle.Broadcast()
			}
			t.mu.Unlock()
			return
		}
	}
}

// worker drains the migration queue.
func (t *TierBackend) worker() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case path := <-t.jobs:
			_ = t.migrateOne(path)
			t.mu.Lock()
			t.pendingMig--
			if t.pendingMig == 0 {
				t.idle.Broadcast()
			}
			t.mu.Unlock()
		}
	}
}

// Wait blocks until every queued migration has been attempted — the
// quiescence barrier the watermark tests and experiments use.
func (t *TierBackend) Wait() {
	t.mu.Lock()
	for t.pendingMig > 0 {
		t.idle.Wait()
	}
	t.mu.Unlock()
}

// EntryInfo is one row of the tier status listing.
type EntryInfo struct {
	Path       string
	Size       units.Bytes
	State      State
	Pinned     bool
	LastAccess time.Time
}

// Entries lists every managed file sorted by path (lsdfctl tier).
func (t *TierBackend) Entries() []EntryInfo {
	t.mu.Lock()
	out := make([]EntryInfo, 0, len(t.files))
	for p, e := range t.files {
		if e.writing {
			continue
		}
		out = append(out, EntryInfo{Path: p, Size: e.size, State: e.state, Pinned: e.pinned, LastAccess: e.lastAccess})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Stats is a snapshot of the tier's counters and gauges.
type Stats struct {
	Files       int
	Resident    int
	Premigrated int
	Migrated    int
	Pinned      int

	HotUsed        units.Bytes
	HotCapacity    units.Bytes
	HotUtilization float64

	Migrations    uint64 // completed Premigrated→Migrated stub swaps
	Premigrations uint64 // completed cold copies
	Recalls       uint64 // cold reads performed (deduplicated)
	RecallErrors  uint64
	MigratedBytes units.Bytes
	RecallBytes   units.Bytes
	RecallWaitNs  int64 // cumulative reader wait across recalls
}

// Utilization returns the current hot-tier utilization (0 when no
// capacity is configured).
func (t *TierBackend) Utilization() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity <= 0 {
		return 0
	}
	return float64(t.hotUsed) / float64(t.capacity)
}

// Stats returns a snapshot of the tier counters.
func (t *TierBackend) Stats() Stats {
	s := Stats{
		Migrations:    t.migrations.Load(),
		Premigrations: t.premigrations.Load(),
		Recalls:       t.recalls.Load(),
		RecallErrors:  t.recallErrors.Load(),
		MigratedBytes: units.Bytes(t.migratedBytes.Load()),
		RecallBytes:   units.Bytes(t.recallBytes.Load()),
		RecallWaitNs:  t.recallWaitNs.Load(),
	}
	t.mu.Lock()
	s.HotUsed = t.hotUsed
	s.HotCapacity = t.capacity
	if t.capacity > 0 {
		s.HotUtilization = float64(t.hotUsed) / float64(t.capacity)
	}
	for _, e := range t.files {
		if e.writing {
			continue
		}
		s.Files++
		if e.pinned {
			s.Pinned++
		}
		switch e.state {
		case Resident:
			s.Resident++
		case Premigrated:
			s.Premigrated++
		case Migrated:
			s.Migrated++
		}
	}
	t.mu.Unlock()
	return s
}
