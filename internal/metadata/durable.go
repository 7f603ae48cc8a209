package metadata

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"

	"repro/internal/metadata/durafs"
)

// readFile returns name's bytes. Only fs.ErrNotExist means absent; any
// other error must fail Open — an unreadable snapshot or segment read
// as "none yet" opens the store without its history.
func (w *walLog) readFile(name string) ([]byte, error) {
	f, err := w.fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// listSegments returns the numbers of the log segments in the
// directory, ascending. A directory laid out by an earlier build — a
// MANIFEST and one log per shard — is refused by name: its records
// would replay in a different order than the one log's.
func (w *walLog) listSegments() ([]int, error) {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("metadata: wal dir: %w", err)
	}
	var segs []int
	for _, name := range names {
		if name == "MANIFEST" || strings.HasPrefix(name, "shard-") {
			return nil, fmt.Errorf("%w: %s/%s is a per-shard journal; dump it with `lsdfctl export` from the build that wrote it and load the dump into an empty directory with Store.Import", ErrWALConfig, w.dir, name)
		}
		var seg int
		if _, err := fmt.Sscanf(name, "log-%d.wal", &seg); err == nil && name == segName(seg) {
			segs = append(segs, seg)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// RecoveryStats describes what Open found and did. Zero for
// non-durable stores and for fresh directories.
type RecoveryStats struct {
	SnapshotsLoaded      int   // 1 when the store was restored from its snapshot
	SnapshotDatasets     int   // datasets loaded from the snapshot
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

// WALErrors counts journaling failures that cannot reach a caller —
// NotePlacement, NoteReplica, StageReplica, a failed Sync — and
// snapshots that could not be written. A failed note or Sync means the
// store has gone fail-stop and every later mutation errors; a failed
// snapshot loses nothing (the log still holds it all).
func (s *Store) WALErrors() int64 { return s.walErrs.Load() }

// Snapshots returns the number of compacted snapshots written since
// open.
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
// covers: what a restart now would replay.
func (s *Store) WALTailRecords() int64 {
	if s.wal == nil {
		return 0
	}
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return int64(s.wal.recordsSinceSnap)
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
	if len(ps.replicas[path]) == 0 {
		return nil
	}
	return maps.Clone(ps.replicas[path])
}

// openWAL attaches the durability plane to a freshly constructed
// (empty) store and recovers any prior state from dir in one pass: it
// installs the snapshot, replays the log segments in order — skipping
// what the snapshot covers — and truncates a torn tail. It then opens
// the newest segment for appends, creating the first one in a fresh
// directory.
func (s *Store) openWAL(opts Options) error {
	fsys := opts.FS
	if fsys == nil {
		fsys = durafs.OS()
	}
	if err := fsys.MkdirAll(opts.WALDir); err != nil {
		return fmt.Errorf("metadata: wal dir: %w", err)
	}
	w := &walLog{fs: fsys, dir: opts.WALDir, interval: opts.GroupCommitInterval,
		snapshotEvery: opts.SnapshotEvery, commitDone: make(chan struct{})}
	segs, err := w.listSegments()
	if err != nil {
		return err
	}
	snap, haveSnap, err := w.loadSnapshot()
	if err != nil {
		return err
	}
	if haveSnap {
		s.recovered.SnapshotsLoaded, s.recovered.SnapshotDatasets = 1, len(snap.Datasets)
	}
	// Installing the snapshot is applying its records, as Import does.
	for _, rec := range snap.records() {
		s.apply(&rec, nil)
	}

	type tornTail struct {
		path  string
		valid int
	}
	var torn []tornTail
	maxSeq, lastLSN := snap.Seq, snap.LastLSN
	for _, seg := range segs {
		path := w.segPath(seg)
		data, err := w.readFile(path)
		if err != nil {
			return fmt.Errorf("metadata: wal read: %w", err)
		}
		valid, err := scanWAL(data, func(rec *walRecord) {
			maxSeq = max(maxSeq, rec.Seq)
			if rec.LSN <= snap.LastLSN {
				s.recovered.RecordsSkipped++
				return
			}
			lastLSN = max(lastLSN, rec.LSN)
			s.apply(rec, nil)
			s.recovered.RecordsReplayed++
		})
		if err != nil {
			return err // ErrWALCorrupt: checksum-valid frame that won't decode
		}
		// cut makes a segment durable before the next one gets a
		// record, so only the newest segment holding records can have
		// been torn by a crash.
		if len(torn) > 0 && valid > 0 {
			return fmt.Errorf("%w: %s is torn at byte %d but %s holds records after it", ErrWALCorrupt, torn[0].path, torn[0].valid, path)
		}
		if valid < len(data) {
			torn = append(torn, tornTail{path, valid})
			s.recovered.TornTails++
			s.recovered.TornTailBytes += int64(len(data) - valid)
		}
		s.recovered.WALBytesReplayed += int64(valid)
	}
	// Appends resume on a clean boundary, and a second crash must not
	// bring the cut-off bytes back in front of them: the cut is synced.
	for _, t := range torn {
		f, err := fsys.OpenAppend(t.path)
		if err == nil {
			if err = f.Truncate(int64(t.valid)); err == nil {
				err = f.Sync()
			}
			f.Close()
		}
		if err != nil {
			return fmt.Errorf("metadata: wal truncate: %w", err)
		}
	}
	s.seq.Store(maxSeq)
	s.rebuildPaths()

	if len(segs) == 0 {
		segs = []int{0}
	}
	w.firstSeg, w.seg = segs[0], segs[len(segs)-1]
	if w.file, err = fsys.OpenAppend(w.segPath(w.seg)); err != nil {
		return fmt.Errorf("metadata: wal open: %w", err)
	}
	if err := fsys.SyncDir(w.dir); err != nil {
		w.file.Close()
		return fmt.Errorf("metadata: wal open: %w", err)
	}
	w.nextLSN, w.stagedLSN, w.durableLSN = lastLSN+1, lastLSN, lastLSN
	w.recordsSinceSnap, w.snapItems = s.recovered.RecordsReplayed, snap.items()
	s.wal = w
	return nil
}

// apply is the one transition function of the store: it performs the
// mutation rec describes, on the shard route names. The live mutators
// call it (from commit) under the lock of the structure the record
// mutates, just before they journal that same record; recovery calls
// it to replay the log and to install a snapshot; Import's records
// reach it through commit. What recovery rebuilds is therefore what
// the live path acknowledged, by construction.
//
// changed reports whether the state moved — only then is the record
// journaled; err is a record that cannot apply (ErrNotFound). With
// evs non-nil the events the mutation publishes are appended to it, in
// order, each with the dataset as it stood at that step.
//
// Two fields only the state can decide are filled in on the record, so
// that what is journaled replays to the same state: a processing's ID,
// and a create's final tags and version. Path claims are not applied
// here — they are derived from the datasets, never journaled: the
// mutators take them in a round of their own and recovery rebuilds
// them (rebuildPaths).
func (s *Store) apply(rec *walRecord, evs *[]Event) (changed bool, err error) {
	wi, _ := s.route(rec)
	sh, ps := s.shards[wi], s.pathShards[wi]
	emit := func(t EventType, d *Dataset, tag string) {
		if evs != nil {
			*evs = append(*evs, Event{Type: t, Dataset: d.clone(), Tag: tag})
		}
	}
	// Every dataset op but create addresses an existing dataset.
	var d *Dataset
	switch rec.Op {
	case opTag, opUntag, opProc, opDelete:
		if d = sh.datasets[rec.ID]; d == nil {
			return false, fmt.Errorf("%w: %q", ErrNotFound, rec.ID)
		}
	}
	addTag := func(tag string) bool {
		if d.HasTag(tag) {
			return false
		}
		d.Tags = append(d.Tags, tag)
		sort.Strings(d.Tags)
		d.Version++
		sh.index(tag, d.ID)
		emit(EventTagged, d, tag)
		return true
	}

	switch rec.Op {
	case opCreate:
		if rec.Dataset == nil {
			return false, nil
		}
		// A create with tags is a create followed by its tags, in the
		// record's order: the dataset goes in as it was before them.
		bare := *rec.Dataset
		bare.Tags, bare.Version = nil, bare.Version-len(rec.Dataset.Tags)
		stored := bare.clone()
		d = &stored
		sh.insert(d)
		emit(EventCreated, d, "")
		for _, tag := range rec.Dataset.Tags {
			addTag(tag)
		}
		rec.Dataset.Tags = append(rec.Dataset.Tags[:0], d.Tags...)
		rec.Dataset.Version = d.Version
		return true, nil
	case opTag:
		return addTag(rec.Tag), nil
	case opUntag:
		if !d.HasTag(rec.Tag) {
			return false, nil
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
		emit(EventUntagged, d, rec.Tag)
		return true, nil
	case opProc:
		if rec.Proc == nil {
			return false, nil
		}
		if rec.Proc.ID == "" {
			rec.Proc.ID = fmt.Sprintf("%s-p%03d", d.ID, len(d.Processings)+1)
		}
		d.Processings = append(d.Processings, *rec.Proc)
		d.Version++
		emit(EventProcessingAdded, d, "")
		return true, nil
	case opDelete:
		sh.remove(d)
		emit(EventDeleted, d, "")
		return true, nil
	case opPlacement:
		ps.placement[rec.Path] = rec.State
		return true, nil
	case opReplica:
		return ps.setReplica(rec.Path, rec.Site, rec.State), nil
	}
	return false, fmt.Errorf("%w: %q", errNoTransition, rec.Op)
}

// errNoTransition is apply's answer to an op it has no case for.
// Replay skips such a record, as it always has; the op table test
// fails on it, so a new op cannot be journaled without a transition.
var errNoTransition = errors.New("metadata: no transition for op")

// rebuildPaths derives the logical-path namespace from the surviving
// datasets. When two live datasets claim one path — possible only
// when a delete's WAL record was lost to a crash while a later
// create of the same path survived — the later creation (higher ID)
// wins, matching the logical history, and the stale dataset is
// dropped.
func (s *Store) rebuildPaths() {
	type claim struct {
		d  *Dataset
		sh *shard
	}
	byPath := make(map[string]claim)
	for _, sh := range s.shards {
		for _, d := range sh.datasets {
			win := claim{d, sh}
			if prev, dup := byPath[d.Path]; dup {
				lose := prev
				if idLess(d.ID, prev.d.ID) {
					win, lose = prev, win
				}
				lose.sh.remove(lose.d)
				s.recovered.PathConflictsDropped++
			}
			byPath[d.Path] = win
		}
	}
	for p, c := range byPath {
		s.pathShardFor(p).byPath[p] = c.d.ID
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

// --- journaling hooks ---

// journalWait makes everything staged up to lsn durable
// (group-committing with concurrent mutators) and compacts the log when
// its uncompacted tail has reached max(SnapshotEvery, items in the last
// snapshot). Called with no structure lock held; lsn 0 (nothing
// staged, or an in-memory store) returns at once.
func (s *Store) journalWait(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	w := s.wal
	if err := w.waitDurable(lsn); err != nil {
		return err
	}
	w.mu.Lock()
	due := w.recordsSinceSnap >= max(w.snapshotEvery, w.snapItems)
	w.mu.Unlock()
	if due {
		if err := s.snapshot(false); err != nil {
			// A failed snapshot loses no data (the WAL still has
			// everything); surface it on the error counter and keep
			// serving.
			s.walErrs.Add(1)
		}
	}
	return nil
}

// closeWAL flushes and closes the log.
func (s *Store) closeWAL() {
	if s.wal != nil {
		s.wal.close()
	}
}
