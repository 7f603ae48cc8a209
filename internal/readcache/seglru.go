package readcache

import (
	"container/list"

	"repro/internal/units"
)

// blockKey names one cached block: block idx (adal.ChainBlock bytes,
// the object's last one possibly shorter) of the object at path.
type blockKey struct {
	path string
	idx  int64
}

// centry is one cached block's bookkeeping record. The same type
// serves both tiers: the memory tier carries the bytes inline, the
// disk tier leaves data nil and keeps the bytes in its backend.
// Records are owned by exactly one segLRU and are only touched under
// the cache mutex; the data slice, once inserted, is immutable, so
// readers may hold it after the lock is released (and even after the
// entry is evicted).
type centry struct {
	key      blockKey
	size     units.Bytes
	data     []byte // memory tier only
	verified bool   // bytes were SHA-256-checked against the catalog's digest
	chain    []byte // the object's checkpoint chain, when the cache derived it itself
	elem     *list.Element
	prot     bool // protected segment (vs probationary)
}

// segLRU is a byte-budgeted segmented LRU (the 2Q-flavoured eviction
// the tiers share): new blocks enter a probationary segment and are
// promoted to the protected segment on their second touch. Eviction
// drains the probationary tail first, so a one-pass scan churns only
// probation and cannot flush the established hot set; the protected
// segment is itself capped, demoting its tail back to probation so a
// shifting hot set still turns over.
//
// All methods assume the owning cache's mutex is held.
type segLRU struct {
	budget   units.Bytes
	protCap  units.Bytes // ceiling on protected bytes (protectedFraction * budget)
	admitCap units.Bytes // largest admissible span (admitFraction * budget)

	used     units.Bytes
	protUsed units.Bytes
	prob     *list.List // front = most recent
	protSeg  *list.List
	idx      map[string]map[int64]*centry // path -> block index -> entry
}

func newSegLRU(budget units.Bytes, protFrac, admitFrac float64) *segLRU {
	return &segLRU{
		budget:   budget,
		protCap:  units.Bytes(protFrac * float64(budget)),
		admitCap: units.Bytes(admitFrac * float64(budget)),
		prob:     list.New(),
		protSeg:  list.New(),
		idx:      make(map[string]map[int64]*centry),
	}
}

// admits reports whether a span of the given size — the blocks one
// request touches — may enter the tier at all: the size-aware
// admission gate that keeps one huge cold read from evicting the
// entire hot set.
func (s *segLRU) admits(size units.Bytes) bool {
	return s != nil && size > 0 && size <= s.admitCap
}

func (s *segLRU) get(path string, idx int64) *centry {
	if s == nil {
		return nil
	}
	return s.idx[path][idx]
}

// has reports whether any block of path is cached here.
func (s *segLRU) has(path string) bool { return s != nil && len(s.idx[path]) > 0 }

// touch records a hit: probationary entries are promoted to the
// protected segment (their second touch proves re-use), protected
// entries move to the segment front. Promotion may demote the
// protected tail back to probation to respect the protected cap.
func (s *segLRU) touch(e *centry) {
	if e.prot {
		s.protSeg.MoveToFront(e.elem)
		return
	}
	s.prob.Remove(e.elem)
	e.prot = true
	e.elem = s.protSeg.PushFront(e)
	s.protUsed += e.size
	for s.protUsed > s.protCap {
		tail := s.protSeg.Back()
		if tail == nil || tail.Value.(*centry) == e {
			break
		}
		d := tail.Value.(*centry)
		s.protSeg.Remove(tail)
		d.prot = false
		d.elem = s.prob.PushFront(d)
		s.protUsed -= d.size
	}
}

// add inserts a new entry into probation, in place of an older one
// under the same key, and returns the entries evicted to stay within
// budget (probationary tail first, then the protected tail). The new
// entry itself is never a victim: admits guarantees it is smaller
// than the budget, so space can always be reclaimed from older entries.
func (s *segLRU) add(e *centry) (evicted []*centry) {
	if old := s.get(e.key.path, e.key.idx); old != nil {
		s.removeEntry(old)
	}
	e.prot = false
	e.elem = s.prob.PushFront(e)
	if s.idx[e.key.path] == nil {
		s.idx[e.key.path] = make(map[int64]*centry)
	}
	s.idx[e.key.path][e.key.idx] = e
	s.used += e.size
	for s.used > s.budget {
		victim := s.prob.Back()
		if victim != nil && victim.Value.(*centry) == e {
			victim = victim.Prev()
		}
		if victim == nil {
			victim = s.protSeg.Back()
		}
		if victim == nil {
			break
		}
		v := victim.Value.(*centry)
		s.removeEntry(v)
		evicted = append(evicted, v)
	}
	return evicted
}

// drop removes path's blocks — every one, or only the unverified —
// and returns them.
func (s *segLRU) drop(path string, all bool) (dropped []*centry) {
	if s == nil {
		return nil
	}
	for _, e := range s.idx[path] {
		if all || !e.verified {
			s.removeEntry(e)
			dropped = append(dropped, e)
		}
	}
	return dropped
}

func (s *segLRU) removeEntry(e *centry) {
	if e.prot {
		s.protSeg.Remove(e.elem)
		s.protUsed -= e.size
	} else {
		s.prob.Remove(e.elem)
	}
	blocks := s.idx[e.key.path]
	delete(blocks, e.key.idx)
	if len(blocks) == 0 {
		delete(s.idx, e.key.path)
	}
	s.used -= e.size
	e.elem = nil
}
