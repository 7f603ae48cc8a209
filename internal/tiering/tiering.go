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
	// Meta is the tier's placement record, and required: each object's
	// row (metadata.Placement: state, digest, modification time, pin)
	// is journaled there, New rebuilds the tier from the rows, and every
	// state transition is published on its bus (metadata.EventPlacement)
	// while the transition holds its path: a synchronous subscriber must
	// not call back into the tier for that path.
	Meta *metadata.Store
	// MountPrefix is prepended to backend-relative paths in the rows and
	// their events, so they match the federated paths ingest registers.
	MountPrefix string
	// Clock injects a timestamp source (default time.Now).
	Clock func() time.Time
}

// entry is one object as the tier holds it: its row, as journaled, and
// what only this process needs to know.
type entry struct {
	metadata.Placement
	created    time.Time
	lastAccess time.Time
	migrating  bool // a premigrate/migrate transition is in flight
	writing    bool // Create issued, Close not yet seen
}

// op makes one transition of a path exclusive: it journals the path's
// row and, for a recall or a migration, rewrites or removes the hot
// copy. Open, Remove and the other transitions wait on done and
// re-examine the entry — that re-check loop is what makes concurrent
// readers of a migrated path share one recall, and what keeps the rows
// of one path in the journal in the order the tier made them.
type op struct {
	recall bool // readers' waits on it count as recall wait
	done   chan struct{}
}

// errGone ends a transition whose path no longer names the entry it
// began on: the object was removed, or removed and created again.
var errGone = errors.New("tiering: object removed")

// TierBackend federates a hot and a cold adal.Backend behind the
// plain Backend contract. All methods are safe for concurrent use.
//
// Lock ordering: mu is never held across backend or journal I/O.
// Transitions that journal a row register an op (per path) first; Open
// and Remove wait for in-flight ops before acting on the path.
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
	hotUsed    units.Bytes // logical data bytes on the hot tier
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

// New builds a tier over hot and cold from its rows in cfg.Meta and
// starts the background migration machinery. Opening reads the journal,
// not the data: no hot object is opened, and hot bytes no row names —
// the orphans of a crash — are never listed or served.
func New(name string, hot, cold adal.Backend, cfg Config) (*TierBackend, error) {
	if cfg.Meta == nil {
		return nil, fmt.Errorf("tiering: %s: Config.Meta is required, it holds the tier's placement", name)
	}
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
	for path, row := range cfg.Meta.Placements(cfg.MountPrefix) {
		t.files[path] = &entry{Placement: row, created: row.ModTime, lastAccess: row.ModTime}
		if row.State != Migrated {
			t.hotUsed += row.Digest.Size
		}
	}
	t.wg.Add(1)
	go t.scanner()
	for i := 0; i < cfg.MigrationWorkers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	// The rows may describe a hot tier already past the watermark; wake
	// the scanner rather than waiting for a write.
	t.maybeScan()
	return t, nil
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

// get returns path's entry, or ErrNotFound for a path the tier does not
// hold or is still writing. Callers hold mu.
func (t *TierBackend) get(path string) (*entry, error) {
	if e := t.files[path]; e != nil && !e.writing {
		return e, nil
	}
	return nil, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
}

// note journals path's row — nil drops it — and, with sync, waits until
// it is durable. The store publishes the placement event.
func (t *TierBackend) note(path string, row *metadata.Placement, sync bool) error {
	err := t.meta.Place(t.prefix+path, row)
	if err == nil && sync {
		err = t.meta.Sync()
	}
	return err
}

// begin registers an op on path once the op in flight there, if any,
// is done, provided path still names e.
func (t *TierBackend) begin(path string, e *entry) (*op, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.ops[path] != nil {
		o := t.ops[path]
		t.mu.Unlock()
		<-o.done
		t.mu.Lock()
	}
	if t.files[path] != e {
		return nil, errGone
	}
	o := &op{done: make(chan struct{})}
	t.ops[path] = o
	return o, nil
}

func (t *TierBackend) finishOp(path string, o *op) {
	t.mu.Lock()
	delete(t.ops, path)
	t.mu.Unlock()
	close(o.done)
}

// transition journals e's row with edit applied, durably, under an op
// on path, and then makes it the entry's.
func (t *TierBackend) transition(path string, e *entry, edit func(*metadata.Placement)) error {
	o, err := t.begin(path, e)
	if err != nil {
		return err
	}
	row := e.Placement // only an op holder writes it
	edit(&row)
	if err = t.note(path, &row, true); err == nil {
		t.mu.Lock()
		e.Placement = row
		t.mu.Unlock()
	}
	t.finishOp(path, o)
	return err
}

// Create implements adal.Backend. The name is reserved immediately
// (concurrent creators collide here, and so does one racing the path's
// Remove); the entry becomes visible once the writer is closed and its
// row — size, digest and modification time — is staged in the store,
// durable with the registration that follows. Hot bytes at a path the
// tier holds no row for are a crash's orphan, and are replaced.
func (t *TierBackend) Create(path string) (io.WriteCloser, error) {
	now := t.clock()
	t.mu.Lock()
	if t.files[path] != nil || t.ops[path] != nil {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s:%s", adal.ErrExists, t.name, path)
	}
	t.files[path] = &entry{writing: true, created: now}
	t.mu.Unlock()
	fail := func(err error) error {
		// The hot object's state is unknown; drop the reservation and
		// make a best effort to clear the partial object.
		t.mu.Lock()
		delete(t.files, path)
		t.mu.Unlock()
		_ = t.hot.Remove(path)
		return err
	}
	if err := t.hot.Remove(path); err != nil && !errors.Is(err, adal.ErrNotFound) {
		return nil, fail(err)
	}
	w, err := t.hot.Create(path)
	if err != nil {
		return nil, fail(err)
	}
	return adal.NewChecksumWriter(w, func(d adal.Digest, err error) error {
		now := t.clock()
		row := metadata.Placement{State: Resident, Digest: d, ModTime: now}
		if err == nil {
			err = t.note(path, &row, false)
		}
		if err != nil {
			return fail(err)
		}
		t.mu.Lock()
		if e := t.files[path]; e != nil {
			e.Placement, e.lastAccess, e.writing = row, now, false
			t.hotUsed += d.Size
		}
		t.mu.Unlock()
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
		e, err := t.get(path)
		if err != nil {
			t.mu.Unlock()
			return nil, err
		}
		e.lastAccess = t.clock()
		if o := t.ops[path]; o != nil {
			t.mu.Unlock()
			start := time.Now()
			<-o.done
			if o.recall {
				t.recallWaitNs.Add(time.Since(start).Nanoseconds())
			}
			continue // re-examine the state the op left behind
		}
		if e.State != Migrated {
			t.mu.Unlock()
			r, err := t.hot.Open(path)
			// The hot open ran outside mu: a migration (or a recall's
			// rewrite) may have removed or replaced the hot object in
			// that window, handing us a not-found. Re-examine; only a
			// result obtained with no transition in sight is valid.
			t.mu.Lock()
			e2, ok := t.files[path]
			raced := t.ops[path] != nil || (ok && e2.State == Migrated)
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
		o := &op{recall: true, done: make(chan struct{})}
		t.ops[path] = o
		t.mu.Unlock()

		start := time.Now()
		err = t.recall(path, e)
		t.finishOp(path, o)
		t.recallWaitNs.Add(time.Since(start).Nanoseconds())
		if err != nil {
			t.recallErrors.Add(1)
			return nil, err
		}
	}
}

// recall, run under path's recall op, moves the cold copy over whatever
// the hot tier holds at path, checked block by block against the row's
// digest — a corrupt cold copy fails at its bad block, leaving the object
// Migrated and its hot path cleared — and then journals the object
// Premigrated: the cold copy stays valid until the object is removed.
// Recalled bytes count toward the watermark, so a recall burst can wake
// the scanner just like a write burst.
func (t *TierBackend) recall(path string, e *entry) error {
	row := e.Placement
	if err := moveObject(t.cold, t.hot, path, row.Digest); err != nil {
		return fmt.Errorf("tiering: recall %s: %w", path, err)
	}
	row.State = Premigrated
	if err := t.note(path, &row, true); err != nil {
		return fmt.Errorf("tiering: recall %s: %w", path, err)
	}
	t.mu.Lock()
	e.Placement = row
	t.hotUsed += row.Digest.Size
	t.mu.Unlock()
	t.recalls.Add(1)
	t.recallBytes.Add(int64(row.Digest.Size))
	t.maybeScan()
	return nil
}

// moveObject is the one tier move: it streams from's copy of path over
// whatever to holds there, checked against want as it lands (memory
// stays one block, whatever the object's size), and clears a failed
// copy's partial destination. What the failure owes the entry — a
// migrating flag cleared — is the caller's.
func moveObject(from, to adal.Backend, path string, want adal.Digest) error {
	r, err := from.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := to.Remove(path); err != nil && !errors.Is(err, adal.ErrNotFound) {
		return fmt.Errorf("clearing the destination: %w", err)
	}
	w, err := to.Create(path)
	if err != nil {
		return err
	}
	_, err = adal.Transfer(context.TODO(), w, r, want)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = to.Remove(path)
	}
	return err
}

// Stat implements adal.Backend. Migrated files report their logical
// size and original modification time.
func (t *TierBackend) Stat(path string) (adal.FileInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.get(path)
	if err != nil {
		return adal.FileInfo{}, err
	}
	return adal.FileInfo{Path: path, Size: e.Digest.Size, ModTime: e.ModTime}, nil
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
		out = append(out, adal.FileInfo{Path: p, Size: e.Digest.Size, ModTime: e.ModTime})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Remove implements adal.Backend. The row goes first, durably — a
// restart never brings the object back — and then the bytes, from both
// tiers whatever the state: a crash between a cold copy and its note
// leaves cold bytes under a Resident row. The path stays reserved until
// they are gone, so a Create racing the Remove is refused.
func (t *TierBackend) Remove(path string) error {
	t.mu.Lock()
	e, err := t.get(path)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	o, err := t.begin(path, e)
	if err != nil {
		return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
	}
	t.mu.Lock()
	delete(t.files, path)
	if e.State != Migrated {
		t.hotUsed -= e.Digest.Size
	}
	t.mu.Unlock()
	err = t.note(path, nil, true)
	for _, b := range []adal.Backend{t.hot, t.cold} {
		if err == nil {
			if err = b.Remove(path); errors.Is(err, adal.ErrNotFound) {
				err = nil
			}
		}
	}
	t.finishOp(path, o)
	return err
}

// Pin exempts a file from migration; a pinned premigrated or
// migrated file keeps its current placement but will not move
// further toward tape. The pin is in the file's row, so it outlasts
// the process.
func (t *TierBackend) Pin(path string) error { return t.setPin(path, true) }

// Unpin re-admits a file to migration.
func (t *TierBackend) Unpin(path string) error { return t.setPin(path, false) }

func (t *TierBackend) setPin(path string, pinned bool) error {
	t.mu.Lock()
	e, err := t.get(path)
	t.mu.Unlock()
	if err == nil {
		err = t.transition(path, e, func(row *metadata.Placement) { row.Pinned = pinned })
	}
	if errors.Is(err, errGone) {
		err = fmt.Errorf("%w: %s:%s", adal.ErrNotFound, t.name, path)
	}
	return err
}

// State reports a file's placement state.
func (t *TierBackend) State(path string) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.get(path)
	if err != nil {
		return 0, false
	}
	return e.State, true
}

// Premigrate eagerly copies a resident file to the cold tier
// (ingest's premigrate-on-ingest mode): the file keeps its hot bytes
// but a later watermark migration only has to drop them.
func (t *TierBackend) Premigrate(path string) error {
	t.mu.Lock()
	e, err := t.get(path)
	if err != nil {
		t.mu.Unlock()
		return err
	}
	if e.State != Resident || e.migrating {
		t.mu.Unlock()
		return nil // already has (or is getting) a cold copy
	}
	e.migrating = true
	t.mu.Unlock()
	err = t.toCold(path)
	t.clearMigrating(path)
	return err
}

// toCold gives a resident file, whose migrating flag the caller holds,
// a cold copy and flips it to Premigrated; any other file it leaves
// alone. The copy is checked against the row's digest as it lands, so
// hot bytes that no longer match it — corrupted at rest — never reach
// the cold tier.
func (t *TierBackend) toCold(path string) error {
	t.mu.Lock()
	e, ok := t.files[path]
	if !ok || e.State != Resident {
		t.mu.Unlock()
		return nil
	}
	want := e.Digest
	t.mu.Unlock()

	if err := moveObject(t.hot, t.cold, path, want); err != nil {
		return fmt.Errorf("tiering: premigrate %s: %w", path, err)
	}
	err := t.transition(path, e, func(row *metadata.Placement) { row.State = Premigrated })
	if errors.Is(err, errGone) {
		_ = t.cold.Remove(path) // removed underneath us; drop the orphan copy
		return nil
	}
	if err != nil {
		return fmt.Errorf("tiering: premigrate %s: %w", path, err)
	}
	t.premigrations.Add(1)
	return nil
}

// Migrate forces one file through the full Resident → Premigrated →
// Migrated transition, ignoring watermarks and MinAge. Pinned files
// refuse; files already migrated are a no-op.
func (t *TierBackend) Migrate(path string) error {
	t.mu.Lock()
	e, err := t.get(path)
	if err != nil {
		t.mu.Unlock()
		return err
	}
	if e.State == Migrated {
		t.mu.Unlock()
		return nil
	}
	if e.Pinned {
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
// set) to Migrated: a cold copy if it is still resident, then, under a
// per-path op so readers wait out the swap, the Migrated row made
// durable and only then the hot bytes removed. A crash between the two
// leaves hot bytes no row counts, which the next recall overwrites.
func (t *TierBackend) migrateOne(path string) error {
	defer t.clearMigrating(path)
	if err := t.toCold(path); err != nil {
		return err // stays resident; the next scan retries
	}
	t.mu.Lock()
	e, ok := t.files[path]
	t.mu.Unlock()
	if !ok {
		return nil // removed while queued, or under the copy
	}
	o, err := t.begin(path, e)
	if err != nil {
		return nil
	}
	row := e.Placement
	if row.State != Premigrated || row.Pinned {
		t.finishOp(path, o)
		return nil
	}
	row.State = Migrated
	if err := t.note(path, &row, true); err != nil {
		t.finishOp(path, o)
		return fmt.Errorf("tiering: migrate %s: %w", path, err)
	}
	t.mu.Lock()
	e.Placement = row
	t.hotUsed -= row.Digest.Size
	t.mu.Unlock()
	_ = t.hot.Remove(path) // what a failed remove leaves, the next recall overwrites
	t.finishOp(path, o)
	t.migrations.Add(1)
	t.migratedBytes.Add(int64(row.Digest.Size))
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
	over := t.pol.over(t.capacity, t.hotUsed)
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

// Scan runs one migration planning pass (Policy.Plan) and queues its
// victims for the worker pool.
func (t *TierBackend) Scan() {
	t.mu.Lock()
	objs := make([]Candidate, 0, len(t.files))
	for p, e := range t.files {
		objs = append(objs, Candidate{Path: p, Size: e.Digest.Size, State: e.State,
			Created: e.created, LastAccess: e.lastAccess,
			Pinned: e.Pinned, Writing: e.writing, InFlight: e.migrating})
	}
	picked := t.pol.Plan(t.capacity, t.hotUsed, t.clock(), objs)
	for _, p := range picked {
		t.files[p].migrating = true
		t.pendingMig++
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

	Migrations    uint64 // completed Premigrated→Migrated transitions
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
		if e.Pinned {
			s.Pinned++
		}
		switch e.State {
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
