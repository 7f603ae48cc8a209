package metadata

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
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

// readFile returns name's bytes. Only fs.ErrNotExist means absent; any
// other error must fail Open — an unreadable snapshot or manifest read
// as "none yet" opens the store without its history.
func (ws *walSet) readFile(name string) ([]byte, error) {
	f, err := ws.fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// writeFile creates name holding data and syncs it; the caller makes
// the directory entry durable.
func (ws *walSet) writeFile(name string, data []byte) error {
	f, err := ws.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// WALErrors counts journaling failures of notes — NotePlacement,
// NoteReplica, a staged note's log failing under whoever waits for it —
// which cannot return errors to their callers. Any non-zero value means
// the owning shard has gone fail-stop and later mutations on it error.
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
	if len(ps.replicas[path]) == 0 {
		return nil
	}
	return maps.Clone(ps.replicas[path])
}

// openWAL attaches the durability plane to a freshly constructed
// (empty) store and recovers any prior state from dir.
func (s *Store) openWAL(opts Options) error {
	fsys := opts.FS
	if fsys == nil {
		fsys = durafs.OS()
	}
	if err := fsys.MkdirAll(opts.WALDir); err != nil {
		return fmt.Errorf("metadata: wal dir: %w", err)
	}
	ws := &walSet{
		fs:            fsys,
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

// checkManifest validates <dir>/MANIFEST, creating it only when the
// directory has none: a manifest that exists but cannot be opened must
// not be overwritten.
func (ws *walSet) checkManifest(shards int) error {
	manifestPath := ws.dir + "/MANIFEST"
	data, err := ws.readFile(manifestPath)
	if errors.Is(err, fs.ErrNotExist) {
		return ws.writeManifest(manifestPath, shards)
	}
	if err != nil {
		return fmt.Errorf("metadata: manifest: %w", err)
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

func (ws *walSet) writeManifest(path string, shards int) error {
	payload, err := json.Marshal(walManifest{Version: 1, Shards: shards})
	if err != nil {
		return err
	}
	if err := ws.writeFile(path, appendFrame(nil, payload)); err != nil {
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
	snap, haveSnap, err := s.loadSnapshot(i)
	if err != nil {
		return nil, 0, err
	}
	lastLSN := snap.LastLSN
	if haveSnap {
		s.recovered.SnapshotsLoaded++
		s.recovered.SnapshotDatasets += len(snap.Datasets)
		maxSeq = snap.Seq
		// Installing a dump is applying its records, as Import does.
		for _, rec := range snap.records() {
			s.apply(uint32(i), &rec, nil)
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
			s.apply(uint32(i), &rec, nil)
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
	data, err := s.wal.readFile(path)
	if err != nil {
		return nil, fmt.Errorf("metadata: wal read: %w", err)
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

// apply is the one transition function of the store: it performs the
// mutation rec describes on shard wi. The live mutators call it (from
// commit) under the lock of the structure the record mutates, just
// before they journal that same record; recovery calls it to replay
// the log and to install a snapshot; Import's records reach it through
// commit. What recovery rebuilds is therefore what the live path
// acknowledged, by construction.
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
func (s *Store) apply(wi uint32, rec *walRecord, evs *[]Event) (changed bool, err error) {
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

// journalWait makes the records a lock round staged durable
// (group-committing with concurrent mutators), recording a failure on
// the round, and compacts the shard when its uncompacted tail has
// reached max(SnapshotEvery, items in the last snapshot). Called with
// the structure lock released.
func (s *Store) journalWait(run *commitRun) {
	if run.err != nil || run.lsn == 0 {
		return // nothing staged: no change, or an in-memory store
	}
	w := s.wal.shards[run.wi]
	if run.err = w.waitDurable(run.lsn); run.err != nil {
		if run.lo == run.hi {
			s.walErrs.Add(1) // only notes were waited for: see awaitLog
		}
		return
	}
	w.mu.Lock()
	due := w.recordsSinceSnap >= max(s.wal.snapshotEvery, w.snapItems)
	w.mu.Unlock()
	if due {
		if err := s.snapshotShard(int(run.wi), false); err != nil {
			// A failed snapshot loses no data (the WAL still has
			// everything); surface it on the error counter and keep
			// serving.
			s.walErrs.Add(1)
		}
	}
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
