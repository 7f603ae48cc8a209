package metadata

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/metadata/durafs"
)

// ErrSnapshotCorrupt reports a snapshot file whose frame checksum or
// payload failed to decode. Snapshots are synced before being
// renamed into place, so a corrupt one is real disk damage, not a
// crash artifact — recovery refuses rather than silently dropping
// the shard's compacted history.
var ErrSnapshotCorrupt = errors.New("metadata: snapshot corrupt")

// storeDump is the Export/Import document. Snapshots embed the same
// shape (per shard), so a snapshot is literally a per-shard Export
// plus the WAL position it compacts.
type storeDump struct {
	Seq        int64                        `json:"seq"`
	Datasets   []Dataset                    `json:"datasets"`
	Placements map[string]string            `json:"placements,omitempty"`
	Replicas   map[string]map[string]string `json:"replicas,omitempty"`
}

// shardSnapshot is one shard's compacted state: every live dataset
// whose ID hashes to the shard, every placement/replica note whose
// path hashes to it, and the LSN through which the WAL is folded in.
// Records at or below LastLSN are skipped during replay.
type shardSnapshot struct {
	storeDump
	LastLSN uint64 `json:"last_lsn"`
}

// items is how many entries the snapshot holds: what it cost, and so
// how many records must pass before the shard compacts again.
func (snap *shardSnapshot) items() int {
	return len(snap.Datasets) + len(snap.Placements) + len(snap.Replicas)
}

// captureShard clones shard i's state and cuts its WAL at the same
// LSN. It holds the dataset-shard and path-shard locks together —
// mutators never hold both, so this cannot deadlock — which freezes
// staging on the shard's WAL: the cut and the clone see one consistent
// (datasets, placements, replicas, LSN). It returns the snapshot and
// the number of committed records it covers.
func (s *Store) captureShard(i int, next durafs.File) (shardSnapshot, int, error) {
	sh := s.shards[i]
	ps := s.pathShards[i]

	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	lsn, records, err := s.wal.shards[i].cut(next)
	if err != nil {
		return shardSnapshot{}, 0, err
	}
	snap := shardSnapshot{LastLSN: lsn}
	snap.Seq = s.seq.Load()
	snap.Datasets = make([]Dataset, 0, len(sh.datasets))
	for _, d := range sh.datasets {
		snap.Datasets = append(snap.Datasets, d.clone())
	}
	if len(ps.placement) > 0 {
		snap.Placements = make(map[string]string, len(ps.placement))
		for k, v := range ps.placement {
			snap.Placements[k] = v
		}
	}
	if len(ps.replicas) > 0 {
		snap.Replicas = make(map[string]map[string]string, len(ps.replicas))
		for k, sites := range ps.replicas {
			cp := make(map[string]string, len(sites))
			for site, st := range sites {
				cp[site] = st
			}
			snap.Replicas[k] = cp
		}
	}
	return snap, records, nil
}

// snapshotShard compacts shard i: it cuts the WAL onto a fresh
// segment at the LSN it captures, writes the snapshot, and deletes
// the segments the snapshot supersedes — so a snapshot always
// truncates, however many commits land while it is being written.
// force (Checkpoint) blocks on the per-shard snapshot mutex; the
// inline trigger path uses TryLock so at most one mutator pays the
// snapshot cost while the rest keep committing.
//
// Crash ordering (DESIGN.md §9): the new segment exists durably before
// a record can be acknowledged in it; the old ones are deleted only
// after the snapshot's rename is durable.
func (s *Store) snapshotShard(i int, force bool) error {
	mu := &s.wal.snapMu[i]
	if force {
		mu.Lock()
	} else if !mu.TryLock() {
		return nil
	}
	defer mu.Unlock()

	fs := s.wal.fs
	w := s.wal.shards[i]
	next, err := fs.OpenAppend(w.segPath(w.seg + 1)) // seg moves only under snapMu
	if err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := fs.SyncDir(s.wal.dir); err != nil {
		next.Close()
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	snap, records, err := s.captureShard(i, next)
	if err != nil {
		next.Close()
		return err
	}
	sort.Slice(snap.Datasets, func(a, b int) bool { return snap.Datasets[a].ID < snap.Datasets[b].ID })

	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("metadata: snapshot encode: %w", err)
	}
	frame := appendFrame(nil, payload)

	tmp := s.wal.snapPath(i) + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	// Sync before rename: the rename must never make an unsynced
	// snapshot the authoritative one (see durafs: renamed files keep
	// their unsynced tails volatile).
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := fs.Rename(tmp, s.wal.snapPath(i)); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := fs.SyncDir(s.wal.dir); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	s.wal.snapshots.Add(1)
	s.wal.snapBytes.Add(int64(len(frame)))
	w.compacted(records, snap.items())
	return nil
}

// loadSnapshot reads and decodes shard i's snapshot file; ok=false
// means no snapshot exists (a fresh shard).
func (s *Store) loadSnapshot(i int) (shardSnapshot, bool, error) {
	f, err := s.wal.fs.Open(s.wal.snapPath(i))
	if err != nil {
		return shardSnapshot{}, false, nil // no snapshot yet
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return shardSnapshot{}, false, fmt.Errorf("metadata: snapshot read: %w", err)
	}
	payload, _, ok := decodeFrame(data)
	if !ok {
		return shardSnapshot{}, false, fmt.Errorf("%w: shard %d frame invalid", ErrSnapshotCorrupt, i)
	}
	var snap shardSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return shardSnapshot{}, false, fmt.Errorf("%w: shard %d: %v", ErrSnapshotCorrupt, i, err)
	}
	return snap, true, nil
}

// Checkpoint forces a compacted snapshot of every shard, leaving each
// WAL with only what commits after it. A clean shutdown that
// Checkpoints first recovers instantly (no replay).
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	var firstErr error
	for i := range s.shards {
		if err := s.snapshotShard(i, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
