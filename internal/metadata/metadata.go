// Package metadata implements the LSDF project metadata database
// (slide 8): "Metadata is essential ... metadata schema is highly
// project-dependent => we use a project metadata DB."
//
// The data model follows the paper's figure exactly: experiment DATA
// and BASIC METADATA are write-once/read-many and persistent, while
// each processing pass appends its own metadata set (METADATA 1..N:
// basic metadata + processing parameters + results). Datasets carry
// free-form tags, which are what the DataBrowser and the workflow
// trigger system key on.
//
// # Sharding
//
// The repository is sharded: datasets are spread over N shards
// (power of two, default 16) by FNV-1a hash of the dataset ID, and
// the logical-path namespace over an equal number of path shards by
// hash of the path. Each shard carries its own lock and its own
// byProject/byTag index fragments, so concurrent writers touching
// different datasets proceed without contending on a global lock.
// Find fans out across shards in parallel and merges the per-shard
// results in deterministic ID order, so query results are identical
// for any shard count. A batched mutation (CreateBatch, Import) groups
// its work by shard and takes one lock round per shard instead of one
// lock per dataset.
//
// A mutation is a walRecord and nothing else: every mutator builds
// records for commit (batch.go), which runs each through apply
// (durable.go) — the function recovery replays the log through. The
// shards are lock stripes only: a durable store has one log (wal.go).
//
// # Event delivery
//
// Every mutation publishes an Event to subscribers, inline on the
// mutating goroutine, in subscription order, after the mutation's shard
// lock is released and — on a durable store — after the journal has
// acknowledged it (a staged note, after it is staged): a mutation the
// journal refused publishes nothing (see bus.go). Work that must not run on the mutator's goroutine is
// handed off by the subscriber (the rule engine's executor), which
// joins the Flush barrier through HoldFlush.
//
// Close flushes and stops delivery; mutations remain possible after
// Close but no further events are delivered.
package metadata

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata/durafs"
	"repro/internal/units"
)

// Errors reported by store operations.
var (
	ErrNotFound  = errors.New("metadata: dataset not found")
	ErrDuplicate = errors.New("metadata: logical path already registered")
)

// Dataset is one registered data object. Basic metadata is immutable
// after Create, matching the paper's write-once contract; tags and
// processing records accumulate.
type Dataset struct {
	ID        string            `json:"id"`
	Project   string            `json:"project"`
	Path      string            `json:"path"` // logical path in the ADAL namespace
	Size      units.Bytes       `json:"size"`
	Checksum  string            `json:"checksum,omitempty"`
	Basic     map[string]string `json:"basic,omitempty"`
	Tags      []string          `json:"tags,omitempty"` // sorted
	CreatedAt time.Time         `json:"created_at"`
	Version   int               `json:"version"`

	Processings []Processing `json:"processings,omitempty"`
}

// HasTag reports whether the dataset carries the tag.
func (d *Dataset) HasTag(tag string) bool { return slices.Contains(d.Tags, tag) }

// Processing is one analysis pass over a dataset: the paper's
// "processing X metadata + results X" block.
type Processing struct {
	ID         string            `json:"id"`
	Tool       string            `json:"tool"`
	Params     map[string]string `json:"params,omitempty"`
	StartedAt  time.Time         `json:"started_at"`
	FinishedAt time.Time         `json:"finished_at"`
	Results    map[string]string `json:"results,omitempty"`
	Outputs    []string          `json:"outputs,omitempty"` // logical paths of produced data
}

// EventType classifies store notifications.
type EventType int

// Store event types.
const (
	EventCreated EventType = iota
	EventTagged
	EventUntagged
	EventProcessingAdded
	EventDeleted
	// EventPlacement announces a storage-tier placement transition
	// (resident/premigrated/migrated) for the object at Dataset.Path;
	// published by Place, when a tier's row is new or changes state.
	EventPlacement
	// EventReplica announces a replica-catalogue state transition
	// (pending/copying/valid/stale/lost/dropped) for the object at
	// Dataset.Path on the site named by Event.Site; published by the
	// store's replica notes (replicas.go), only when one moves the
	// table.
	EventReplica
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventTagged:
		return "tagged"
	case EventUntagged:
		return "untagged"
	case EventProcessingAdded:
		return "processing-added"
	case EventDeleted:
		return "deleted"
	case EventPlacement:
		return "placement"
	case EventReplica:
		return "replica"
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// Event is a store notification. Dataset is a snapshot taken after
// the mutation.
type Event struct {
	Type      EventType
	Dataset   Dataset
	Tag       string // set for EventTagged/EventUntagged
	Placement string // set for EventPlacement/EventReplica: the new state
	Site      string // set for EventReplica: the replica's site
	// Depth is how many rule firings caused this event: 0 for a
	// mutation from outside the engine, the cause's Depth+1 for one
	// made through CausedBy.
	Depth int
}

// Options configures a Store.
type Options struct {
	// Shards is the number of in-memory lock stripes; it is rounded up
	// to a power of two. 0 means the default of 16. 1 degenerates to a
	// single-lock store (the pre-sharding behavior, useful as a
	// benchmark baseline). A WAL directory reopens at any count.
	Shards int
	// Clock supplies timestamps; nil means time.Now.
	Clock func() time.Time
	// WALDir enables durability: every mutation is journaled to the
	// store's one append-only WAL under this directory before it is
	// acknowledged, a compacted snapshot of the whole store bounds
	// replay, and Open recovers the full state (datasets, tags,
	// processings, placements, replicas) from the snapshot plus the
	// WAL tail. Empty (the default) keeps the store purely in-memory.
	WALDir string
	// SnapshotEvery is the least number of WAL records between
	// compacted snapshots — at least as many as the last snapshot held
	// items must pass too; 0 means the default of 512.
	SnapshotEvery int
	// GroupCommitInterval is how long a commit leader waits for
	// concurrent mutations to join its batch before paying the
	// fsync. 0 commits immediately (concurrent mutators still share
	// syncs opportunistically — whatever staged during the previous
	// commit goes out in one batch).
	GroupCommitInterval time.Duration
	// FS routes all durability I/O; nil means the real filesystem
	// (durafs.OS()). Tests inject durafs.MemFS / durafs.Fault to
	// crash the store deterministically.
	FS durafs.FS
}

// DefaultShards is the shard count used when Options.Shards is 0.
const DefaultShards = 16

// DefaultSnapshotEvery is the least WAL record count between
// compacted snapshots when Options.SnapshotEvery is 0.
const DefaultSnapshotEvery = 512

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	o.Shards = 1 << bits.Len(uint(o.Shards-1)) // up to a power of two
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	return o
}

// shard holds the datasets whose ID hashes onto it, plus this
// shard's fragment of the project and tag indexes.
type shard struct {
	mu        sync.RWMutex
	datasets  map[string]*Dataset
	byProject map[string]map[string]bool // project -> ids (this shard only)
	byTag     map[string]map[string]bool // tag -> ids (this shard only)
}

// pathShard holds the slice of the logical-path namespace that
// hashes onto it. Claiming a path here is what makes Create's
// duplicate detection race-free without a global lock. It also
// carries the per-path placement and replica rows (keyed by the same
// hash), which durable stores journal and recover.
type pathShard struct {
	mu         sync.RWMutex
	byPath     map[string]string      // path -> id
	placements map[string]Placement   // path -> its tier's row (placement.go)
	replicas   map[string]*replicaRow // path -> its replica row (replicas.go)
}

// Store is the metadata repository. All methods are safe for
// concurrent use. See the package comment for the sharding layout
// and event delivery.
type Store struct {
	shards     []*shard
	pathShards []*pathShard
	mask       uint32
	seq        *atomic.Int64
	now        func() time.Time
	bus        *bus
	depth      int // stamped on every event this handle publishes (CausedBy)

	// Durability plane (nil for pure in-memory stores): one WAL and
	// one snapshot behind the durafs seam. See wal.go, snapshot.go,
	// durable.go.
	wal       *walLog
	walErrs   *atomic.Int64
	recovered RecoveryStats
}

// NewStore creates an empty repository with default options:
// 16 shards, wall-clock time, in-memory.
func NewStore() *Store { return NewStoreWith(Options{}) }

// NewStoreWith creates a repository from explicit options. It panics
// if recovery fails, which can only happen when Options.WALDir is
// set — durable callers should prefer Open and handle the error.
func NewStoreWith(opts Options) *Store {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Open creates a repository from explicit options. With
// Options.WALDir set it recovers prior state from the snapshot plus
// the WAL tail (truncating at a torn record), and every subsequent
// mutation is journaled before it is acknowledged. Open fails on a
// directory in the per-shard layout of earlier builds (ErrWALConfig,
// naming the file) or on corruption that torn-tail truncation cannot
// explain (ErrWALCorrupt, ErrSnapshotCorrupt). Recovery publishes no
// events.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		shards:     make([]*shard, opts.Shards),
		pathShards: make([]*pathShard, opts.Shards),
		mask:       uint32(opts.Shards - 1),
		seq:        new(atomic.Int64),
		now:        opts.Clock,
		bus:        newBus(),
		walErrs:    new(atomic.Int64),
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			datasets:  make(map[string]*Dataset),
			byProject: make(map[string]map[string]bool),
			byTag:     make(map[string]map[string]bool),
		}
		s.pathShards[i] = &pathShard{byPath: make(map[string]string),
			placements: make(map[string]Placement), replicas: make(map[string]*replicaRow)}
	}
	if opts.WALDir != "" {
		if err := s.openWAL(opts); err != nil {
			s.bus.close()
			return nil, err
		}
	}
	return s, nil
}

// CausedBy returns a handle on the same store whose mutations publish
// their events at ev.Depth+1: the rule engine hands it to an action,
// so the events that action causes carry the length of the chain that
// led to them, on whichever goroutine the action runs.
func (s *Store) CausedBy(ev Event) *Store {
	c := *s
	c.depth = ev.Depth + 1
	return &c
}

// Shards returns the shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

// fnv32a is the 32-bit FNV-1a hash, inlined to avoid the hash.Hash
// allocation on every shard lookup.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (s *Store) shardFor(id string) *shard           { return s.shards[fnv32a(id)&s.mask] }
func (s *Store) pathShardFor(path string) *pathShard { return s.pathShards[fnv32a(path)&s.mask] }

// insert registers d in the shard's maps. Callers hold sh.mu.
func (sh *shard) insert(d *Dataset) {
	sh.datasets[d.ID] = d
	if sh.byProject[d.Project] == nil {
		sh.byProject[d.Project] = make(map[string]bool)
	}
	sh.byProject[d.Project][d.ID] = true
	for _, t := range d.Tags {
		sh.index(t, d.ID)
	}
}

func (sh *shard) index(tag, id string) {
	if sh.byTag[tag] == nil {
		sh.byTag[tag] = make(map[string]bool)
	}
	sh.byTag[tag][id] = true
}

// remove is insert's inverse. Callers hold sh.mu.
func (sh *shard) remove(d *Dataset) {
	delete(sh.datasets, d.ID)
	delete(sh.byProject[d.Project], d.ID)
	for _, t := range d.Tags {
		delete(sh.byTag[t], d.ID)
	}
}

// publish is the one place an event leaves the store: it stamps the
// handle's depth and delivers to the subscribers inline. Callers hold
// no lock, so callbacks may call back into the store, and publish only
// what the log took: acknowledged, or — for the notes the store stages
// by design (Place, a Valid replica note) — staged.
func (s *Store) publish(evs ...Event) {
	for _, ev := range evs {
		ev.Depth = s.depth
		s.bus.deliver(ev)
	}
}

// Create registers a dataset: a CreateBatch of one. The basic map is
// copied and immutable afterwards. The logical path must be unique.
// On a durable store Create returns only after the creation is
// journaled; a WAL failure returns ErrWALFailed and the store goes
// fail-stop.
func (s *Store) Create(project, path string, size units.Bytes, checksum string, basic map[string]string) (Dataset, error) {
	res := s.CreateBatch([]CreateSpec{{Project: project, Path: path, Size: size, Checksum: checksum, Basic: basic}})[0]
	return res.Dataset, res.Err
}

// Get returns a snapshot of a dataset by ID.
func (s *Store) Get(id string) (Dataset, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	d, ok := sh.datasets[id]
	if !ok {
		return Dataset{}, false
	}
	return d.clone(), true
}

// ByPath returns a snapshot of the dataset registered at path.
func (s *Store) ByPath(path string) (Dataset, bool) {
	ps := s.pathShardFor(path)
	ps.mu.RLock()
	id, ok := ps.byPath[path]
	ps.mu.RUnlock()
	if !ok {
		return Dataset{}, false
	}
	// A concurrent Create may have claimed the path but not yet
	// inserted the dataset; treat that in-flight window as not found.
	return s.Get(id)
}

// Count returns the number of datasets.
func (s *Store) Count() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.datasets)
		sh.mu.RUnlock()
	}
	return n
}

// Tag adds a tag; it is idempotent. Subscribers observe EventTagged
// only on the first application.
func (s *Store) Tag(id, tag string) error {
	return s.commitOne(walRecord{Op: opTag, ID: id, Tag: tag})
}

// Untag removes a tag if present.
func (s *Store) Untag(id, tag string) error {
	return s.commitOne(walRecord{Op: opUntag, ID: id, Tag: tag})
}

// AddProcessing appends a processing record, returning its ID.
func (s *Store) AddProcessing(id string, p Processing) (string, error) {
	p = p.clone()
	p.ID = "" // apply numbers it under the shard lock
	if err := s.commitOne(walRecord{Op: opProc, ID: id, Proc: &p}); err != nil {
		return "", err
	}
	return p.ID, nil
}

// Delete removes a dataset and, once it is gone, gives its path back:
// the claim is taken and released outside the dataset shard's lock
// round, like CreateBatch's, and is not journaled — recovery derives
// the namespace from the datasets that survive (rebuildPaths).
func (s *Store) Delete(id string) error {
	d, ok := s.Get(id) // for the path, which never changes
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	err := s.commitOne(walRecord{Op: opDelete, ID: id})
	if errors.Is(err, ErrNotFound) {
		return err // a concurrent Delete won, and releases the path
	}
	ps := s.pathShardFor(d.Path)
	ps.mu.Lock()
	if ps.byPath[d.Path] == id {
		delete(ps.byPath, d.Path)
	}
	ps.mu.Unlock()
	return err
}

// Sync waits until everything staged in the log — staged notes
// included — is durable. A failure counts on WALErrors, like a failed
// note, and is returned.
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	err := s.journalWait(s.wal.undurable())
	if err != nil {
		s.walErrs.Add(1)
	}
	return err
}

// notePublish publishes a path note's event. Its dataset snapshot
// lives on another shard than the note, so it is taken after the
// commit, with no lock held, and not by apply.
func (s *Store) notePublish(typ EventType, path, site, state string) {
	ev := Event{Type: typ, Placement: state, Site: site}
	var ok bool
	if ev.Dataset, ok = s.ByPath(path); !ok {
		ev.Dataset = Dataset{Path: path}
	}
	s.publish(ev)
}

// Subscribe registers a callback for every subsequent mutation; the
// returned function unsubscribes. Callbacks run inline on the mutating
// goroutine, after subscribers registered earlier, and may call back
// into the store; a callback with slow work hands it to a goroutine of
// its own under HoldFlush.
func (s *Store) Subscribe(fn func(Event)) (unsubscribe func()) {
	return s.bus.subscribe(fn)
}

// Flush blocks until the work subscribers handed off under HoldFlush —
// and whatever that work published and handed off in turn — is done.
// Events themselves are delivered before their mutation returns, so
// with no HoldFlush work outstanding Flush returns at once. Flush must
// not be called from a subscriber callback.
func (s *Store) Flush() { s.bus.flush() }

// HoldFlush registers one unit of external in-flight work with the
// flush barrier and returns its release function. A subscriber that
// hands an event to a worker pool of its own (the rule engine's
// executor) calls it before its callback returns, so Flush keeps
// waiting until the handed-off work calls release — that is what
// makes Flush a full quiescence barrier across chained subsystems.
// release is idempotent.
func (s *Store) HoldFlush() (release func()) { return s.bus.hold() }

// Close flushes and stops event delivery, then commits anything still
// staged in the WAL and releases the log files. The store remains
// readable, but on a durable store mutations after Close will fail.
func (s *Store) Close() {
	s.bus.close()
	s.closeWAL()
}

func (d *Dataset) clone() Dataset {
	out := *d
	out.Basic = maps.Clone(d.Basic)
	out.Tags = append([]string(nil), d.Tags...)
	out.Processings = make([]Processing, len(d.Processings))
	for i, p := range d.Processings {
		out.Processings[i] = p.clone()
	}
	return out
}

func (p Processing) clone() Processing {
	p.Params = maps.Clone(p.Params)
	p.Results = maps.Clone(p.Results)
	p.Outputs = append([]string(nil), p.Outputs...)
	return p
}

// Query selects datasets. Zero fields match everything; set fields
// are conjunctive.
type Query struct {
	Project       string
	Tags          []string // all must be present
	PathPrefix    string
	CreatedAfter  time.Time
	CreatedBefore time.Time
	Basic         map[string]string // all pairs must match
	Limit         int               // 0 = unlimited
}

// Find returns matching dataset snapshots sorted by ID. Each shard
// narrows its candidate set through its project/tag index fragments
// — which is what keeps 10^5-dataset queries flat (E3) — and the
// shards are scanned in parallel, with the per-shard results merged
// in deterministic ID order.
func (s *Store) Find(q Query) []Dataset {
	perShard := make([][]Dataset, len(s.shards))
	if len(s.shards) == 1 {
		perShard[0] = s.shards[0].find(q)
	} else {
		var wg sync.WaitGroup
		for i, sh := range s.shards {
			wg.Add(1)
			go func(i int, sh *shard) {
				defer wg.Done()
				perShard[i] = sh.find(q)
			}(i, sh)
		}
		wg.Wait()
	}
	total := 0
	for _, part := range perShard {
		total += len(part)
	}
	if total == 0 {
		return nil
	}
	out := make([]Dataset, 0, total)
	for _, part := range perShard {
		out = append(out, part...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// find collects this shard's matches in ID order, capped at q.Limit
// per shard (the global head-by-ID is a subset of the union of the
// per-shard heads, so the cap cannot drop a result that the merged,
// truncated output would have kept).
func (sh *shard) find(q Query) []Dataset {
	sh.mu.RLock()
	defer sh.mu.RUnlock()

	// Choose the narrowest index fragment.
	var candidates map[string]bool
	if q.Project != "" {
		candidates = sh.byProject[q.Project]
	}
	for _, t := range q.Tags {
		set := sh.byTag[t]
		if candidates == nil || len(set) < len(candidates) {
			candidates = set
		}
	}

	var ids []string
	if candidates != nil {
		ids = make([]string, 0, len(candidates))
		for id := range candidates {
			ids = append(ids, id)
		}
	} else {
		ids = make([]string, 0, len(sh.datasets))
		for id := range sh.datasets {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	var out []Dataset
	for _, id := range ids {
		d := sh.datasets[id]
		if d == nil || !matches(d, q) {
			continue
		}
		out = append(out, d.clone())
		if q.Limit > 0 && len(out) >= q.Limit {
			break
		}
	}
	return out
}

func matches(d *Dataset, q Query) bool {
	if q.Project != "" && d.Project != q.Project {
		return false
	}
	for _, t := range q.Tags {
		if !d.HasTag(t) {
			return false
		}
	}
	if q.PathPrefix != "" && !strings.HasPrefix(d.Path, q.PathPrefix) {
		return false
	}
	if !q.CreatedAfter.IsZero() && d.CreatedAt.Before(q.CreatedAfter) {
		return false
	}
	if !q.CreatedBefore.IsZero() && !d.CreatedAt.Before(q.CreatedBefore) {
		return false
	}
	for k, v := range q.Basic {
		if d.Basic[k] != v {
			return false
		}
	}
	return true
}

// Export writes the full repository as JSON (one stable document):
// every dataset plus the placement and replica tables, as of one
// point in the store's history. The snapshot captures the same
// storeDump and stores it as records, so a snapshot is an Export plus
// a WAL position.
func (s *Store) Export(w io.Writer) error {
	thaw := s.freeze()
	dump := s.dump()
	thaw()
	dump.sort()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// Import loads a repository dump into an empty store. The dump's
// records — the ones recovery applies to install a snapshot — go
// through commit, so on a durable store every imported dataset and
// note is journaled and the import survives a crash like any other
// mutation. It publishes no events and must not run concurrently with
// mutations.
func (s *Store) Import(r io.Reader) error {
	var dump storeDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return fmt.Errorf("metadata: import: %w", err)
	}
	if s.Count() > 0 {
		return errors.New("metadata: import into non-empty store")
	}
	s.seq.Store(dump.Seq)
	for i := range dump.Datasets {
		d := &dump.Datasets[i]
		if _, err := s.claimPath(d.Path, d.ID); err != nil {
			return fmt.Errorf("metadata: import: %w", err)
		}
	}
	return errors.Join(s.commit(dump.records(), false, true)...)
}
