package metadata

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata/durafs"
)

// walSet is the durability plane of one store: a WAL and snapshot
// slot per shard, all rooted in one directory on the injected
// filesystem.
//
// Layout: <dir>/MANIFEST, <dir>/shard-NNN.snap and the shard's log
// segments: <dir>/shard-NNN.wal is segment 0 (the whole log in the
// layout before segments), <dir>/shard-NNN-SSSSSS.wal segment S > 0
// (plus transient .snap.tmp files that recovery ignores).
type walSet struct {
	fs            durafs.FS
	dir           string
	shards        []*walShard
	snapMu        []sync.Mutex // per-shard snapshot serialization
	snapshotEvery int
	snapshots     atomic.Int64 // snapshots written since open
	snapBytes     atomic.Int64 // bytes of those snapshots
}

func (ws *walSet) snapPath(i int) string { return fmt.Sprintf("%s/shard-%03d.snap", ws.dir, i) }

func (ws *walSet) segPath(i, seg int) string {
	if seg == 0 {
		return fmt.Sprintf("%s/shard-%03d.wal", ws.dir, i)
	}
	return fmt.Sprintf("%s/shard-%03d-%06d.wal", ws.dir, i, seg)
}

// listSegments returns, per shard, the numbers of the log segments
// present in the directory, ascending.
func (ws *walSet) listSegments(shards int) ([][]int, error) {
	names, err := ws.fs.ReadDir(ws.dir)
	if err != nil {
		return nil, fmt.Errorf("metadata: wal dir: %w", err)
	}
	segs := make([][]int, shards)
	for _, name := range names {
		var i, seg int // "shard-NNN.wal" scans one number: segment 0
		if n, _ := fmt.Sscanf(name, "shard-%d-%d", &i, &seg); n > 0 && strings.HasSuffix(name, ".wal") && uint(i) < uint(shards) {
			segs[i] = append(segs[i], seg)
		}
	}
	for _, s := range segs {
		sort.Ints(s) // not name order: segment 0 is "shard-NNN.wal"
	}
	return segs, nil
}

// manifest pins the WAL directory to a shard count; reopening with a
// different count would hash records to the wrong logs.
type walManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// RecoveryStats describes what Open found and did. Zero for
// non-durable stores and for fresh directories.
type RecoveryStats struct {
	SnapshotsLoaded      int   // shards restored from a snapshot
	SnapshotDatasets     int   // datasets loaded from snapshots
	RecordsReplayed      int   // WAL records applied after snapshots
	RecordsSkipped       int   // stale records (LSN <= snapshot) skipped
	TornTails            int   // WAL files truncated at a torn record
	TornTailBytes        int64 // bytes dropped by those truncations
	WALBytesReplayed     int64 // valid WAL bytes scanned
	PathConflictsDropped int   // duplicate-path datasets dropped (lost delete)
}

// RecoveryStats returns what the last Open recovered.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovered }

// Durable reports whether the store journals mutations to a WAL.
func (s *Store) Durable() bool { return s.wal != nil }

// WALErrors counts journaling failures on the void notification
// paths (NotePlacement/NoteReplica), which cannot return errors to
// their callers. Any non-zero value means the owning shard has gone
// fail-stop and subsequent mutations on it will error.
func (s *Store) WALErrors() int64 { return s.walErrs.Load() }

// Snapshots returns the number of compacted snapshots written since
// open (across all shards).
func (s *Store) Snapshots() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.snapshots.Load()
}

// SnapshotBytes returns the bytes those snapshots wrote.
func (s *Store) SnapshotBytes() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.snapBytes.Load()
}

// WALTailRecords returns the committed records no durable snapshot
// covers, summed over shards: what a restart now would replay.
func (s *Store) WALTailRecords() (n int64) {
	if s.wal == nil {
		return 0
	}
	for _, w := range s.wal.shards {
		w.mu.Lock()
		n += int64(w.recordsSinceSnap)
		w.mu.Unlock()
	}
	return n
}

// Placement returns the last journaled storage-tier placement noted
// for path (via NotePlacement), surviving restarts on durable
// stores.
func (s *Store) Placement(path string) (string, bool) {
	ps := s.pathShardFor(path)
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	st, ok := ps.placement[path]
	return st, ok
}

// Replicas returns a copy of the per-site replica states last noted
// for path (via NoteReplica), surviving restarts on durable stores.
func (s *Store) Replicas(path string) map[string]string {
	ps := s.pathShardFor(path)
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	sites := ps.replicas[path]
	if len(sites) == 0 {
		return nil
	}
	out := make(map[string]string, len(sites))
	for site, st := range sites {
		out[site] = st
	}
	return out
}

// openWAL attaches the durability plane to a freshly constructed
// (empty) store and recovers any prior state from dir.
func (s *Store) openWAL(opts Options) error {
	fs := opts.FS
	if fs == nil {
		fs = durafs.OS()
	}
	if err := fs.MkdirAll(opts.WALDir); err != nil {
		return fmt.Errorf("metadata: wal dir: %w", err)
	}
	ws := &walSet{
		fs:            fs,
		dir:           opts.WALDir,
		snapMu:        make([]sync.Mutex, len(s.shards)),
		snapshotEvery: opts.SnapshotEvery,
	}
	if err := ws.checkManifest(len(s.shards)); err != nil {
		return err
	}
	s.wal = ws

	segs, err := ws.listSegments(len(s.shards))
	if err != nil {
		return err
	}
	maxSeq := s.seq.Load()
	ws.shards = make([]*walShard, len(s.shards))
	for i := range s.shards {
		w, seq, err := s.recoverShard(i, segs[i], opts.GroupCommitInterval)
		if err != nil {
			return err
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		ws.shards[i] = w
	}
	s.seq.Store(maxSeq)
	s.rebuildPaths()
	return nil
}

// checkManifest validates or creates <dir>/MANIFEST.
func (ws *walSet) checkManifest(shards int) error {
	manifestPath := ws.dir + "/MANIFEST"
	if f, err := ws.fs.Open(manifestPath); err == nil {
		data, rerr := io.ReadAll(f)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("metadata: manifest: %w", rerr)
		}
		payload, _, ok := decodeFrame(data)
		var m walManifest
		if !ok || json.Unmarshal(payload, &m) != nil {
			// A torn manifest can only be the remains of a first-open
			// crash: it is written and synced before any WAL record
			// can exist. With data files present it is corruption.
			names, _ := ws.fs.ReadDir(ws.dir)
			for _, n := range names {
				if n != "MANIFEST" {
					return fmt.Errorf("%w: manifest unreadable but %q exists", ErrWALConfig, n)
				}
			}
			return ws.writeManifest(manifestPath, shards)
		}
		if m.Shards != shards {
			return fmt.Errorf("%w: directory has %d shards, store wants %d", ErrWALConfig, m.Shards, shards)
		}
		return nil
	}
	return ws.writeManifest(manifestPath, shards)
}

func (ws *walSet) writeManifest(path string, shards int) error {
	payload, err := json.Marshal(walManifest{Version: 1, Shards: shards})
	if err != nil {
		return err
	}
	f, err := ws.fs.Create(path)
	if err != nil {
		return fmt.Errorf("metadata: manifest: %w", err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		f.Close()
		return fmt.Errorf("metadata: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("metadata: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metadata: manifest: %w", err)
	}
	return ws.fs.SyncDir(ws.dir)
}

// recoverShard loads shard i's snapshot and replays its log segments
// in order, skipping what the snapshot covers and truncating a torn
// tail. It returns the shard's log, positioned to append to the
// newest segment with its compaction trigger restored, plus the
// ID-sequence watermark.
func (s *Store) recoverShard(i int, segs []int, interval time.Duration) (w *walShard, maxSeq int64, err error) {
	sh := s.shards[i]
	ps := s.pathShards[i]

	snap, haveSnap, err := s.loadSnapshot(i)
	if err != nil {
		return nil, 0, err
	}
	lastLSN := snap.LastLSN
	if haveSnap {
		s.recovered.SnapshotsLoaded++
		s.recovered.SnapshotDatasets += len(snap.Datasets)
		maxSeq = snap.Seq
		for idx := range snap.Datasets {
			d := snap.Datasets[idx].clone()
			sh.insert(&d)
		}
		for p, st := range snap.Placements {
			ps.setPlacement(p, st)
		}
		for p, sites := range snap.Replicas {
			for site, st := range sites {
				ps.setReplica(p, site, st)
			}
		}
	}

	segPath := func(seg int) string { return s.wal.segPath(i, seg) }
	tail := 0
	for _, seg := range segs {
		recs, err := s.readSegment(segPath(seg))
		if err != nil {
			return nil, 0, err
		}
		for _, rec := range recs {
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
			if rec.LSN <= lastLSN && haveSnap {
				s.recovered.RecordsSkipped++
				continue
			}
			if rec.LSN > lastLSN {
				lastLSN = rec.LSN
			}
			s.applyRecord(sh, ps, rec)
			s.recovered.RecordsReplayed++
			tail++
		}
	}
	w = newWALShard(s.wal.fs, segPath, interval, lastLSN)
	w.recordsSinceSnap, w.snapItems = tail, snap.items()
	if len(segs) > 0 {
		w.firstSeg, w.seg = segs[0], segs[len(segs)-1]
	}
	return w, maxSeq, nil
}

// readSegment decodes one log segment, dropping a torn tail so that
// appends resume on a clean boundary.
func (s *Store) readSegment(path string) ([]walRecord, error) {
	f, err := s.wal.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("metadata: wal read: %w", err)
	}
	data, rerr := io.ReadAll(f)
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("metadata: wal read: %w", rerr)
	}
	recs, valid, derr := decodeWALStream(data)
	if derr != nil {
		return nil, derr // ErrWALCorrupt: checksum-valid frame that won't decode
	}
	if valid < len(data) {
		s.recovered.TornTails++
		s.recovered.TornTailBytes += int64(len(data) - valid)
		wf, terr := s.wal.fs.OpenAppend(path)
		if terr != nil {
			return nil, fmt.Errorf("metadata: wal truncate: %w", terr)
		}
		terr = wf.Truncate(int64(valid))
		wf.Close()
		if terr != nil {
			return nil, fmt.Errorf("metadata: wal truncate: %w", terr)
		}
	}
	s.recovered.WALBytesReplayed += int64(valid)
	return recs, nil
}

// applyRecord replays one journaled mutation into shard memory.
// Recovery is single-threaded; locks are not needed but the shard
// helpers it reuses keep index maintenance identical to the live
// paths. Path claims are not applied here — rebuildPaths derives the
// whole namespace from the surviving datasets afterwards.
func (s *Store) applyRecord(sh *shard, ps *pathShard, rec walRecord) {
	switch rec.Op {
	case opCreate:
		if rec.Dataset == nil {
			return
		}
		d := rec.Dataset.clone()
		sh.insert(&d)
	case opTag:
		d := sh.datasets[rec.ID]
		if d == nil || d.HasTag(rec.Tag) {
			return
		}
		d.Tags = append(d.Tags, rec.Tag)
		sort.Strings(d.Tags)
		d.Version++
		if sh.byTag[rec.Tag] == nil {
			sh.byTag[rec.Tag] = make(map[string]bool)
		}
		sh.byTag[rec.Tag][d.ID] = true
	case opUntag:
		d := sh.datasets[rec.ID]
		if d == nil || !d.HasTag(rec.Tag) {
			return
		}
		keep := d.Tags[:0]
		for _, t := range d.Tags {
			if t != rec.Tag {
				keep = append(keep, t)
			}
		}
		d.Tags = keep
		d.Version++
		delete(sh.byTag[rec.Tag], d.ID)
	case opProc:
		d := sh.datasets[rec.ID]
		if d == nil || rec.Proc == nil {
			return
		}
		d.Processings = append(d.Processings, *rec.Proc)
		d.Version++
	case opDelete:
		d := sh.datasets[rec.ID]
		if d == nil {
			return
		}
		delete(sh.datasets, rec.ID)
		delete(sh.byProject[d.Project], rec.ID)
		for _, t := range d.Tags {
			delete(sh.byTag[t], rec.ID)
		}
	case opPlacement:
		ps.setPlacement(rec.Path, rec.State)
	case opReplica:
		ps.setReplica(rec.Path, rec.Site, rec.State)
	}
}

// rebuildPaths derives the logical-path namespace from the surviving
// datasets. When two live datasets claim one path — possible only
// when a delete's WAL record was lost to a crash while a later
// create of the same path survived — the later creation (higher ID)
// wins, matching the logical history, and the stale dataset is
// dropped.
func (s *Store) rebuildPaths() {
	type claim struct {
		id    string
		shard *shard
	}
	byPath := make(map[string]claim)
	for _, sh := range s.shards {
		for id, d := range sh.datasets {
			prev, dup := byPath[d.Path]
			if !dup {
				byPath[d.Path] = claim{id, sh}
				continue
			}
			loserID, loserShard := id, sh
			if idLess(prev.id, id) {
				loserID, loserShard = prev.id, prev.shard
				byPath[d.Path] = claim{id, sh}
			}
			ld := loserShard.datasets[loserID]
			delete(loserShard.datasets, loserID)
			delete(loserShard.byProject[ld.Project], loserID)
			for _, t := range ld.Tags {
				delete(loserShard.byTag[t], loserID)
			}
			s.recovered.PathConflictsDropped++
		}
	}
	for p, c := range byPath {
		ps := s.pathShardFor(p)
		ps.byPath[p] = c.id
	}
}

// idLess orders dataset IDs ("ds-%06d") numerically: shorter strings
// first, then lexicographic — correct past the %06d rollover.
func idLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// --- journaling hooks (no-ops when s.wal == nil) ---

// journal stages rec on WAL shard wi. Callers hold the lock of the
// structure the record mutates, which pins the record's LSN to its
// apply order.
func (s *Store) journal(wi uint32, rec walRecord) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.shards[wi].stage(rec)
}

// journalWait makes the staged record durable (group-committing with
// concurrent mutators) and compacts the shard when its uncompacted
// tail has reached max(SnapshotEvery, items in the last snapshot).
// Called with the structure lock released.
func (s *Store) journalWait(wi uint32, lsn uint64, stageErr error) error {
	if s.wal == nil {
		return nil
	}
	if stageErr != nil {
		return stageErr
	}
	w := s.wal.shards[wi]
	if err := w.waitDurable(lsn); err != nil {
		return err
	}
	w.mu.Lock()
	due := w.recordsSinceSnap >= max(s.wal.snapshotEvery, w.snapItems)
	w.mu.Unlock()
	if due {
		if err := s.snapshotShard(int(wi), false); err != nil {
			// A failed snapshot loses no data (the WAL still has
			// everything); surface it on the error counter and keep
			// serving.
			s.walErrs.Add(1)
		}
	}
	return nil
}

// journalWaitAll waits for per-shard LSNs in parallel — the batched
// mutation paths stage across many shards and should not pay the
// shards' fsyncs serially. lsns maps WAL-shard index to the highest
// staged LSN; a zero entry is skipped. Returns the per-shard errors.
func (s *Store) journalWaitAll(lsns []uint64) []error {
	if s.wal == nil {
		return nil
	}
	errs := make([]error, len(lsns))
	var wg sync.WaitGroup
	for wi, lsn := range lsns {
		if lsn == 0 {
			continue
		}
		wg.Add(1)
		go func(wi int, lsn uint64) {
			defer wg.Done()
			errs[wi] = s.journalWait(uint32(wi), lsn, nil)
		}(wi, lsn)
	}
	wg.Wait()
	return errs
}

// closeWAL flushes and closes every shard log.
func (s *Store) closeWAL() {
	if s.wal == nil {
		return
	}
	for _, w := range s.wal.shards {
		w.close()
	}
}
