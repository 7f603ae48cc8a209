package metadata

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"slices"
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

// add appends one shard's state to the dump: clones of its datasets,
// unsorted, and its placement and replica notes. Callers hold sh.mu
// and ps.mu, both — which only dumps may (see captureShard).
func (dump *storeDump) add(sh *shard, ps *pathShard) {
	dump.Datasets = slices.Grow(dump.Datasets, len(sh.datasets))
	for _, d := range sh.datasets {
		dump.Datasets = append(dump.Datasets, d.clone())
	}
	if dump.Placements == nil && len(ps.placement) > 0 {
		dump.Placements = make(map[string]string, len(ps.placement))
	}
	for p, st := range ps.placement {
		dump.Placements[p] = st
	}
	if dump.Replicas == nil && len(ps.replicas) > 0 {
		dump.Replicas = make(map[string]map[string]string, len(ps.replicas))
	}
	for p, sites := range ps.replicas {
		dump.Replicas[p] = maps.Clone(sites)
	}
}

// sort puts the datasets in ID order, which (JSON map keys being
// ordered) makes the encoded dump a pure function of the state.
func (dump *storeDump) sort() {
	sort.Slice(dump.Datasets, func(i, j int) bool { return dump.Datasets[i].ID < dump.Datasets[j].ID })
}

// records is the dump as mutations: one create per dataset, one note
// per placement and per replica. Applying them to an empty store is
// installing the dump — recovery does that with a snapshot; Import
// commits them, so they are journaled as well.
func (dump *storeDump) records() []walRecord {
	recs := make([]walRecord, 0, len(dump.Datasets)+len(dump.Placements)+len(dump.Replicas))
	for i := range dump.Datasets {
		recs = append(recs, walRecord{Op: opCreate, Seq: dump.Seq, Dataset: &dump.Datasets[i]})
	}
	for p, st := range dump.Placements {
		recs = append(recs, walRecord{Op: opPlacement, Path: p, State: st})
	}
	for p, sites := range dump.Replicas {
		for site, st := range sites {
			recs = append(recs, walRecord{Op: opReplica, Path: p, Site: site, State: st})
		}
	}
	return recs
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
	snap.add(sh, ps)
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

	fsys := s.wal.fs
	w := s.wal.shards[i]
	next, err := fsys.OpenAppend(w.segPath(w.seg + 1)) // seg moves only under snapMu
	if err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := fsys.SyncDir(s.wal.dir); err != nil {
		next.Close()
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	snap, records, err := s.captureShard(i, next)
	if err != nil {
		next.Close()
		return err
	}
	snap.sort()

	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("metadata: snapshot encode: %w", err)
	}
	frame := appendFrame(nil, payload)

	tmp := s.wal.snapPath(i) + ".tmp"
	// Synced before the rename: the rename must never make an unsynced
	// snapshot the authoritative one (see durafs: renamed files keep
	// their unsynced tails volatile).
	if err := s.wal.writeFile(tmp, frame); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, s.wal.snapPath(i)); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := fsys.SyncDir(s.wal.dir); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	s.wal.snapshots.Add(1)
	s.wal.snapBytes.Add(int64(len(frame)))
	w.compacted(records, snap.items())
	return nil
}

// loadSnapshot reads and decodes shard i's snapshot file; ok=false
// means no snapshot exists (a fresh shard). A snapshot that exists but
// cannot be opened is an error: the segments it covers are gone, so
// opening without it would drop the shard's compacted history.
func (s *Store) loadSnapshot(i int) (shardSnapshot, bool, error) {
	data, err := s.wal.readFile(s.wal.snapPath(i))
	if errors.Is(err, fs.ErrNotExist) {
		return shardSnapshot{}, false, nil // no snapshot yet
	}
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
