// Package dfs is an executable reimplementation of the Hadoop
// Distributed File System as deployed in the LSDF analysis cluster
// (slide 11: "Hadoop environment + 110 TB Hadoop filesystem, extreme
// scalability on commodity hardware").
//
// The design follows HDFS circa 2011: a single namenode holds the
// namespace and block map; datanodes hold replicated fixed-size
// blocks; placement is rack-aware (first replica near the writer, the
// second on a different rack, the third on the second's rack); reads
// prefer the closest replica. Unlike the facility-scale models in
// this repository, dfs moves real bytes and is safe for concurrent
// use — the MapReduce engine runs directly on top of it.
package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/units"
)

// Errors reported by namespace operations.
var (
	ErrNotFound   = errors.New("dfs: file not found")
	ErrExists     = errors.New("dfs: file exists")
	ErrIncomplete = errors.New("dfs: file is being written")
	ErrNoSpace    = errors.New("dfs: no datanode with free space")
	ErrDeadNode   = errors.New("dfs: datanode is dead")
)

// Config carries cluster-wide parameters.
type Config struct {
	BlockSize   units.Bytes // default 64 MiB, the Hadoop-2011 default
	Replication int         // default 3
	Seed        int64       // placement randomness; fixed for reproducibility

	// MaxReplicaStreams bounds how many block replica transfers run
	// concurrently across the whole cluster (the write-pipeline
	// fan-out). Default 4×GOMAXPROCS.
	MaxReplicaStreams int
}

// BlockID names one block of one file.
type BlockID struct {
	File  uint64
	Index int
}

// String renders the block name in HDFS style.
func (b BlockID) String() string { return fmt.Sprintf("blk_%d_%d", b.File, b.Index) }

// blockMeta is the namenode's record of one block.
type blockMeta struct {
	id       BlockID
	size     units.Bytes
	replicas []string // datanode IDs, placement order
}

// fileEntry is the namenode's record of one file.
type fileEntry struct {
	name     string
	id       uint64
	size     units.Bytes
	blocks   []*blockMeta
	complete bool
	modTime  time.Time // set at Create, bumped when the file completes
}

// FileInfo is the public view of a file.
type FileInfo struct {
	Name     string
	Size     units.Bytes
	Blocks   int
	Complete bool
	ModTime  time.Time
}

// Cluster is the namenode plus its datanodes.
//
// Lock ordering: mu (the namenode lock) may be held while taking a
// datanode's mu (placement probes node space); the reverse never
// happens. The data path — block transfer, checksum verification,
// read/write metrics — takes neither: transfers synchronize on the
// per-node mutexes, metrics are atomics.
type Cluster struct {
	cfg    Config
	pool   *bufferPool
	repSem chan struct{} // cluster-wide bound on concurrent replica streams

	mu     sync.RWMutex
	nodes  map[string]*DataNode
	order  []string // deterministic node iteration order
	files  map[string]*fileEntry
	nextID uint64
	rng    *rand.Rand

	// afterBlockPut, when set, runs between a block's replica puts and
	// its listing: tests kill nodes inside that window through it.
	afterBlockPut func(BlockID)

	// metrics (lock-free; reads never touch mu)
	localReads   atomic.Uint64
	remoteReads  atomic.Uint64
	bytesRead    atomic.Int64
	bytesWrit    atomic.Int64
	reReplicated atomic.Uint64
}

// NewCluster creates an empty cluster.
func NewCluster(cfg Config) *Cluster {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 64 * units.MiB
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 3
	}
	if cfg.MaxReplicaStreams <= 0 {
		cfg.MaxReplicaStreams = 4 * runtime.GOMAXPROCS(0)
	}
	return &Cluster{
		cfg:    cfg,
		pool:   newBufferPool(int(cfg.BlockSize)),
		repSem: make(chan struct{}, cfg.MaxReplicaStreams),
		nodes:  make(map[string]*DataNode),
		files:  make(map[string]*fileEntry),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// AddDataNode registers a node on a rack with a capacity budget.
func (c *Cluster) AddDataNode(id, rack string, capacity units.Bytes) (*DataNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("dfs: datanode %q exists", id)
	}
	dn := &DataNode{ID: id, Rack: rack, Capacity: capacity,
		pool: c.pool, blocks: make(map[BlockID]*replica)}
	dn.alive.Store(true)
	c.nodes[id] = dn
	c.order = append(c.order, id)
	sort.Strings(c.order)
	return dn, nil
}

// DataNodes returns the live node IDs in deterministic order.
func (c *Cluster) DataNodes() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.order))
	for _, id := range c.order {
		if c.nodes[id].isAlive() {
			out = append(out, id)
		}
	}
	return out
}

// Node returns a datanode by ID.
func (c *Cluster) Node(id string) (*DataNode, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	dn, ok := c.nodes[id]
	return dn, ok
}

// Stat describes a file.
func (c *Cluster) Stat(name string) (FileInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return FileInfo{Name: f.name, Size: f.size, Blocks: len(f.blocks), Complete: f.complete, ModTime: f.modTime}, nil
}

// List returns all complete files whose names start with prefix,
// sorted by name.
func (c *Cluster) List(prefix string) []FileInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []FileInfo
	for name, f := range c.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			out = append(out, FileInfo{Name: f.name, Size: f.size, Blocks: len(f.blocks), Complete: f.complete, ModTime: f.modTime})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delete removes a file and releases its blocks.
func (c *Cluster) Delete(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	for _, b := range f.blocks {
		for _, nodeID := range b.replicas {
			if dn, ok := c.nodes[nodeID]; ok {
				dn.dropBlock(b.id)
			}
		}
	}
	delete(c.files, name)
	return nil
}

// Rename atomically moves a complete file to a new name. It is the
// commit primitive for attempt-scoped outputs: a task writes
// "part-00001.a3" and the committer renames the winner into place.
// The target must not exist; the source must be complete (a rename of
// a file mid-write would detach its writer from the namespace).
func (c *Cluster) Rename(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, oldName)
	}
	if !f.complete {
		return fmt.Errorf("%w: %q", ErrIncomplete, oldName)
	}
	if _, ok := c.files[newName]; ok {
		return fmt.Errorf("%w: %q", ErrExists, newName)
	}
	delete(c.files, oldName)
	f.name = newName
	c.files[newName] = f
	return nil
}

// BlockLocations returns, per block of the file, the IDs of datanodes
// holding a live replica. MapReduce uses it for locality scheduling.
func (c *Cluster) BlockLocations(name string) ([][]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if !f.complete {
		return nil, fmt.Errorf("%w: %q", ErrIncomplete, name)
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		for _, id := range b.replicas {
			if dn, ok := c.nodes[id]; ok && dn.isAlive() {
				out[i] = append(out[i], id)
			}
		}
	}
	return out, nil
}

// Report summarizes cluster usage.
type Report struct {
	Nodes        int
	LiveNodes    int
	Capacity     units.Bytes
	Used         units.Bytes
	Files        int
	Blocks       int
	LocalReads   uint64
	RemoteReads  uint64
	BytesRead    units.Bytes
	BytesWritten units.Bytes
	ReReplicated uint64
}

// Report returns a usage snapshot.
func (c *Cluster) Report() Report {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r := Report{
		Nodes:        len(c.nodes),
		Files:        len(c.files),
		LocalReads:   c.localReads.Load(),
		RemoteReads:  c.remoteReads.Load(),
		BytesRead:    units.Bytes(c.bytesRead.Load()),
		BytesWritten: units.Bytes(c.bytesWrit.Load()),
		ReReplicated: c.reReplicated.Load(),
	}
	for _, id := range c.order {
		dn := c.nodes[id]
		r.Capacity += dn.Capacity
		r.Used += dn.used()
		if dn.isAlive() {
			r.LiveNodes++
		}
	}
	for _, f := range c.files {
		r.Blocks += len(f.blocks)
	}
	return r
}
