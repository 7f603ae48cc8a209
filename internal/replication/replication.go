// Package replication is the multi-site layer of the facility: a
// replica catalog tracks which sites hold which objects and in what
// state, an asynchronous transfer engine drives under-replicated
// objects toward a MinReplicas target over bandwidth-aware WAN
// streams, and a FederatedBackend serves reads from the nearest
// valid replica with transparent failover — the "Any Data, Any Time,
// Anywhere" discipline applied to the LSDF's remote communities.
//
// The subsystem composes the prior layers rather than bypassing
// them: every byte moves through ordinary adal.Backend streams (so a
// site may be a MemFS, a LocalFS, an object-store bucket or a tiered
// backend whose migrated objects recall transparently mid-copy), the
// engine learns about new data from the metadata event bus, and every
// catalog transition is published back onto that bus as
// metadata.EventReplica — the DataBrowser and the rule engine observe
// convergence without polling.
//
// # Replica life cycle
//
//	Pending -> Copying -> Valid
//	   ^                   |
//	   |        read error / checksum mismatch
//	   +------ Stale / Lost
//
// A replica is Pending once the engine has decided a site should
// hold the object, Copying while a transfer is in flight, and Valid
// after the copy's SHA-256 matched the recorded content hash. A
// failed site read marks the replica Stale (Lost when the site
// reports not-found) and enqueues re-replication; a revived site's
// stale replicas are re-verified by checksum and flipped back to
// Valid without a duplicate transfer when the bytes survived the
// outage. A durable store journals replicas, not transfers: Pending
// and Copying clear the site's entry; Stale, Lost and dropped block
// until durable; Valid is staged, durable with the CreateBatch that
// registers the object (home copy) or the next commit on its log,
// Engine.Wait or Close (engine copy). So a crash loses at most a
// copy's Valid note — recovery believes less than was true, and the
// next job revalidates the bytes by checksum without moving them.
package replication

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

// State is a replica's catalog state.
type State int

// Replica states.
const (
	// Pending: the engine has scheduled this site to hold a copy.
	Pending State = iota
	// Copying: a transfer toward this site is in flight.
	Copying
	// Valid: the site holds a checksum-verified copy.
	Valid
	// Stale: a read failed or a verify mismatched; the bytes on the
	// site are suspect and the replica must be refreshed.
	Stale
	// Lost: the site reported the object missing entirely.
	Lost
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Copying:
		return "copying"
	case Valid:
		return "valid"
	case Stale:
		return "stale"
	case Lost:
		return "lost"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Replica is one site's copy of one object.
type Replica struct {
	Site       string
	State      State
	Size       units.Bytes
	Checksum   string // hex SHA-256 of the content
	Chain      []byte // its checkpoint chain (adal.Digest), from the same hash pass
	LastVerify time.Time
	LastError  string
}

// CatalogConfig tunes a Catalog.
type CatalogConfig struct {
	// Meta, when set, receives a metadata.EventReplica for every
	// state transition.
	Meta *metadata.Store
	// MountPrefix is prepended to backend-relative paths in replica
	// events so they match the federated paths ingest registers.
	MountPrefix string
	// Clock injects a timestamp source (default time.Now).
	Clock func() time.Time
}

// Catalog is the authoritative replica map: path -> site -> Replica.
// All methods are safe for concurrent use. Mutations publish
// metadata.EventReplica on the configured store's bus; the catalog
// lock is never held across event delivery, so subscribers may call
// back into the catalog.
type Catalog struct {
	meta   *metadata.Store
	prefix string
	clock  func() time.Time

	mu    sync.RWMutex
	paths map[string]map[string]*Replica
}

// NewCatalog creates an empty catalog.
func NewCatalog(cfg CatalogConfig) *Catalog {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Catalog{
		meta:   cfg.Meta,
		prefix: cfg.MountPrefix,
		clock:  cfg.Clock,
		paths:  make(map[string]map[string]*Replica),
	}
}

// event publishes one replica transition after the lock is released;
// only a Valid note is staged rather than waited for (package doc).
func (c *Catalog) event(path, site, state string) {
	switch {
	case c.meta == nil:
	case state == Valid.String():
		c.meta.StageReplica(c.prefix+path, site, state)
	default:
		c.meta.NoteReplica(c.prefix+path, site, state)
	}
}

// Set records a replica wholesale (the engine's commit point after a
// verified copy, and the federated writer's registration of the home
// copy).
func (c *Catalog) Set(path string, r Replica) {
	c.mu.Lock()
	m := c.paths[path]
	if m == nil {
		m = make(map[string]*Replica)
		c.paths[path] = m
	}
	cp := r
	if cp.State == Valid && cp.LastVerify.IsZero() {
		cp.LastVerify = c.clock()
	}
	m[r.Site] = &cp
	c.mu.Unlock()
	c.event(path, r.Site, r.State.String())
}

// Mark transitions an existing replica to state, recording the error
// text for diagnostics. It reports whether the replica existed and
// actually changed state (idempotent re-marks update the error text —
// a Pending replica that keeps failing keeps its latest failure —
// but publish no event).
func (c *Catalog) Mark(path, site string, state State, errText string) bool {
	c.mu.Lock()
	r := c.paths[path][site]
	if r == nil {
		c.mu.Unlock()
		return false
	}
	changed := r.State != state
	r.State = state
	r.LastError = errText
	if state == Valid {
		r.LastVerify = c.clock()
		r.LastError = ""
	}
	c.mu.Unlock()
	if !changed {
		return false
	}
	c.event(path, site, state.String())
	return true
}

// Get returns a snapshot of one replica.
func (c *Catalog) Get(path, site string) (Replica, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r := c.paths[path][site]
	if r == nil {
		return Replica{}, false
	}
	return *r, true
}

// Replicas returns snapshots of every replica of path, sorted by
// site name.
func (c *Catalog) Replicas(path string) []Replica {
	c.mu.RLock()
	m := c.paths[path]
	out := make([]Replica, 0, len(m))
	for _, r := range m {
		out = append(out, *r)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// ValidSites returns the sites holding a Valid replica of path,
// sorted by name.
func (c *Catalog) ValidSites(path string) []string {
	c.mu.RLock()
	var out []string
	for site, r := range c.paths[path] {
		if r.State == Valid {
			out = append(out, site)
		}
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// CountValid returns the number of Valid replicas of path.
func (c *Catalog) CountValid(path string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, r := range c.paths[path] {
		if r.State == Valid {
			n++
		}
	}
	return n
}

// Digest returns the recorded size, content hash and checkpoint chain
// of path, taken from any replica that knows them (the home copy
// records all three at write time; transfers and re-verifies propagate
// them) — one that has the chain before one that has only the hash.
func (c *Catalog) Digest(path string) (d adal.Digest, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, r := range c.paths[path] {
		if r.Checksum != "" && (!ok || len(r.Chain) > len(d.Chain)) {
			d, ok = adal.Digest{Size: r.Size, Sum: r.Checksum, Chain: r.Chain}, true
		}
	}
	return d, ok
}

// Paths returns every cataloged path, sorted.
func (c *Catalog) Paths() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.paths))
	for p := range c.paths {
		out = append(out, p)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Known reports whether path has any catalog entry.
func (c *Catalog) Known(path string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.paths[path]) > 0
}

// Drop removes one site's replica record.
func (c *Catalog) Drop(path, site string) {
	c.mu.Lock()
	m := c.paths[path]
	_, had := m[site]
	delete(m, site)
	if len(m) == 0 {
		delete(c.paths, path)
	}
	c.mu.Unlock()
	if had {
		c.event(path, site, "dropped")
	}
}

// DropPath removes every replica record of path (object deletion).
func (c *Catalog) DropPath(path string) {
	c.mu.Lock()
	m := c.paths[path]
	sites := make([]string, 0, len(m))
	for site := range m {
		sites = append(sites, site)
	}
	delete(c.paths, path)
	c.mu.Unlock()
	sort.Strings(sites)
	for _, site := range sites {
		c.event(path, site, "dropped")
	}
}

// Counts returns the number of replicas per state across the catalog.
func (c *Catalog) Counts() map[State]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[State]int)
	for _, m := range c.paths {
		for _, r := range m {
			out[r.State]++
		}
	}
	return out
}
