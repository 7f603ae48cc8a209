package dfs

import (
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/units"
)

// replica is one stored block copy plus its integrity state. The
// CRC-32C is computed once by the writer and stored verbatim;
// verified records whether the bytes have been checked against it
// since the last event that could have changed them (initial store,
// corruption injection). gen guards against a lost invalidation while
// a lazy verification is hashing outside the node mutex.
//
// lent and pins make buffer recycling alias-safe: lent is latched
// when the data slice escapes to a caller (the slice then outlives
// the replica — it is never recycled, only GC'd); pins counts
// in-flight lock-free checksum passes, deferring recycling of a
// dropped replica until the last one finishes. All four fields are
// guarded by the node mutex.
type replica struct {
	data     []byte
	sum      uint32
	verified bool
	gen      uint64
	lent     bool
	pins     int
	dropped  bool
}

// DataNode stores block replicas in memory. Its exported fields are
// immutable after AddDataNode; the block map is guarded by mu, while
// liveness and usage are atomics so placement probes and cluster
// reports don't bounce every node's lock.
//
// Lock ordering: mu is a leaf lock — code holding it never acquires
// the cluster lock or another node's mu. Checksum work happens
// outside mu so concurrent readers of one node don't serialize behind
// a 64 MiB hash.
type DataNode struct {
	ID       string
	Rack     string
	Capacity units.Bytes

	pool *bufferPool

	alive    atomic.Bool
	usedByte atomic.Int64

	mu     sync.Mutex
	blocks map[BlockID]*replica
}

func (dn *DataNode) isAlive() bool { return dn.alive.Load() }

func (dn *DataNode) used() units.Bytes { return units.Bytes(dn.usedByte.Load()) }

// Used returns the bytes stored on the node.
func (dn *DataNode) Used() units.Bytes { return dn.used() }

// hasSpace reports whether the node can accept sz more bytes. It is
// advisory — placement probes it lock-free; putBlock re-checks
// authoritatively under mu.
func (dn *DataNode) hasSpace(sz units.Bytes) bool {
	return dn.alive.Load() && units.Bytes(dn.usedByte.Load())+sz <= dn.Capacity
}

// putBlock stores a replica. The data slice is copied into a pooled
// buffer (callers keep ownership of data) — or, for a block no longer
// than half a block, into an exact-size one that the pool drops on
// retire: a 20 KiB file must not hold a whole block per replica. sum
// is the writer-computed CRC-32C of data, stored verbatim so the node
// never re-hashes the block it was just handed. The copy happens
// before the mutex is taken so concurrent replica streams to one node
// overlap.
func (dn *DataNode) putBlock(id BlockID, data []byte, sum uint32) error {
	var cp []byte
	if len(data) <= dn.pool.size/2 {
		cp = append(make([]byte, 0, len(data)), data...)
	} else {
		cp = append(dn.pool.get(len(data)), data...)
	}
	sz := units.Bytes(len(data))
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if !dn.alive.Load() {
		dn.pool.put(cp)
		return fmt.Errorf("%w: %s", ErrDeadNode, dn.ID)
	}
	if old, ok := dn.blocks[id]; ok {
		// Re-put of an existing replica: replace.
		dn.usedByte.Add(-int64(len(old.data)))
		delete(dn.blocks, id)
		dn.retireLocked(old)
	}
	if units.Bytes(dn.usedByte.Load())+sz > dn.Capacity {
		dn.pool.put(cp)
		return fmt.Errorf("dfs: datanode %s out of space", dn.ID)
	}
	dn.blocks[id] = &replica{data: cp, sum: sum}
	dn.usedByte.Add(int64(sz))
	return nil
}

// getBlock returns the stored replica bytes and checksum (not a copy;
// callers must not mutate). The checksum is verified lazily: the
// first read after a store or invalidation hashes the block — outside
// the mutex — and records the result, so steady-state reads are a map
// lookup. A corrupt replica reads as an error so callers fall over to
// another copy. The returned slice may be retained indefinitely (the
// replica is marked lent and its buffer is never recycled).
func (dn *DataNode) getBlock(id BlockID) ([]byte, uint32, error) {
	data, sum, _, err := dn.getBlockMode(id, true)
	return data, sum, err
}

// getBlockPinned is getBlock for internal transfers (re-replication)
// that only copy the bytes: instead of latching lent — which would
// exile the buffer from the pool — the replica is pinned. Callers must
// call unpinBlock on the returned replica when done and must not
// retain the slice past it.
func (dn *DataNode) getBlockPinned(id BlockID) ([]byte, uint32, *replica, error) {
	return dn.getBlockMode(id, false)
}

func (dn *DataNode) getBlockMode(id BlockID, lend bool) ([]byte, uint32, *replica, error) {
	if !dn.alive.Load() {
		return nil, 0, nil, fmt.Errorf("%w: %s", ErrDeadNode, dn.ID)
	}
	dn.mu.Lock()
	rep, ok := dn.blocks[id]
	if !ok {
		dn.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("dfs: node %s missing block %s", dn.ID, id)
	}
	data, sum := rep.data, rep.sum
	if rep.verified {
		if lend {
			rep.lent = true
		} else {
			rep.pins++
		}
		dn.mu.Unlock()
		return data, sum, rep, nil
	}
	gen := rep.gen
	rep.pins++ // covers the lock-free hash below
	dn.mu.Unlock()

	got := crc32.Checksum(data, crcTable)

	dn.mu.Lock()
	if got != sum {
		rep.pins--
		dn.unpinLocked(rep)
		dn.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("dfs: node %s block %s corrupt on read", dn.ID, id)
	}
	if cur, ok := dn.blocks[id]; ok && cur == rep && rep.gen == gen {
		rep.verified = true
	}
	if lend {
		rep.pins--
		rep.lent = true // escaping slice: buffer belongs to the GC now
	}
	// !lend: the hash pin carries over as the caller's transfer pin.
	dn.mu.Unlock()
	return data, sum, rep, nil
}

// unpinBlock releases a pin taken by getBlockPinned, recycling the
// buffer if the replica was dropped in the meantime.
func (dn *DataNode) unpinBlock(rep *replica) {
	dn.mu.Lock()
	rep.pins--
	dn.unpinLocked(rep)
	dn.mu.Unlock()
}

// unpinLocked finishes a lock-free hash pass that is NOT handing the
// slice to a caller: if the replica was dropped while pinned and no
// alias escaped, its buffer can now be recycled. Callers hold dn.mu
// and have already decremented pins.
func (dn *DataNode) unpinLocked(rep *replica) {
	if rep.dropped && rep.pins == 0 && !rep.lent {
		rep.dropped = false // recycle exactly once
		dn.pool.put(rep.data)
	}
}

// retireLocked removes a replica's buffer from service: recycled now
// if no alias escaped and no hash pass is in flight, deferred to the
// last unpin otherwise, or left to the GC once lent. Callers hold
// dn.mu and have already removed rep from the block map.
func (dn *DataNode) retireLocked(rep *replica) {
	if rep.lent {
		return // slice escaped; the buffer now belongs to the GC
	}
	if rep.pins > 0 {
		rep.dropped = true
		return
	}
	dn.pool.put(rep.data)
}

// invalidate marks a replica unverified so the next read re-checks
// its checksum. The generation bump prevents a concurrent lazy
// verification (hashing the pre-mutation bytes) from re-marking it
// verified.
func (dn *DataNode) invalidate(rep *replica) {
	rep.verified = false
	rep.gen++
}

// dropBlock removes a replica if present, recycling its buffer only
// when provably unaliased (never lent to a reader, no hash pass in
// flight). See DESIGN.md ("DFS data path").
func (dn *DataNode) dropBlock(id BlockID) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	rep, ok := dn.blocks[id]
	if !ok {
		return
	}
	dn.usedByte.Add(-int64(len(rep.data)))
	delete(dn.blocks, id)
	dn.retireLocked(rep)
}

// holds reports whether the node is serving and stores the block.
// Called under the cluster lock, it decides whether a replica put
// outside that lock may be listed: KillNode marks a node dead and
// strips it from the listed blocks under the same lock, so a node
// killed before the check fails it, and one killed after finds the
// block listed and strips it.
func (dn *DataNode) holds(id BlockID) bool {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	_, ok := dn.blocks[id]
	return ok && dn.alive.Load()
}

// kill marks the node dead and returns the IDs of blocks it held.
// Buffers are not recycled: readers that fetched before the
// heartbeat loss may still hold them.
func (dn *DataNode) kill() []BlockID {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.alive.Store(false)
	out := make([]BlockID, 0, len(dn.blocks))
	for id := range dn.blocks {
		out = append(out, id)
	}
	return out
}
