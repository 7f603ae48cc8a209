package metadata

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"maps"
	"sort"

	"repro/internal/metadata/durafs"
)

// ErrSnapshotCorrupt reports a snapshot file whose checksum does not
// match its document, or whose document did not decode. Snapshots are
// synced before being renamed into place, so a corrupt one is real
// disk damage, not a crash artifact — recovery refuses rather than
// silently dropping the store's compacted history.
var ErrSnapshotCorrupt = errors.New("metadata: snapshot corrupt")

// storeDump is the Export/Import document: the store's state, as
// of one point of its history.
type storeDump struct {
	Seq        int64                        `json:"seq"`
	Datasets   []Dataset                    `json:"datasets"`
	Placements map[string]string            `json:"placements,omitempty"`
	Replicas   map[string]map[string]string `json:"replicas,omitempty"`
}

// sort puts the datasets in ID order, which (JSON map keys being
// ordered) makes the encoded dump a pure function of the state.
func (dump *storeDump) sort() {
	sort.Slice(dump.Datasets, func(i, j int) bool { return dump.Datasets[i].ID < dump.Datasets[j].ID })
}

// records is the dump as mutations: one create per dataset, one note
// per placement and per replica. Applying them to an empty store is
// installing the dump — recovery does that with the snapshot; Import
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

// items is how many entries the dump holds: what a snapshot of it
// costs, and so how many records must pass before the log compacts
// again.
func (dump *storeDump) items() int {
	return len(dump.Datasets) + len(dump.Placements) + len(dump.Replicas)
}

// storeSnapshot is the store's compacted state: its dump, and the LSN
// through which the log is folded in. Replay skips log records at or
// below LastLSN.
type storeSnapshot struct {
	storeDump
	LastLSN uint64 `json:"last_lsn"`
}

// The snapshot file is the storeSnapshot as one JSON document followed
// by the document's CRC32-C (u32, little-endian). A trailer, unlike a
// frame header, is written after the document, so the document is
// streamed a value at a time and never held whole.
const snapTrailerSize = 4

// freeze read-locks every shard's dataset and path locks, in index
// order, and returns the unlock. Mutators never hold two of these
// locks, so this cannot deadlock; while they are held nothing applies
// or stages, and the state is one point of the log.
func (s *Store) freeze() (thaw func()) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
		s.pathShards[i].mu.RLock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
			s.pathShards[i].mu.RUnlock()
		}
	}
}

// dump clones the whole state, datasets unsorted. Callers have frozen
// the store.
func (s *Store) dump() storeDump {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.datasets)
	}
	dump := storeDump{Seq: s.seq.Load(), Datasets: make([]Dataset, 0, n),
		Placements: make(map[string]string), Replicas: make(map[string]map[string]string)}
	for i, sh := range s.shards {
		for _, d := range sh.datasets {
			dump.Datasets = append(dump.Datasets, d.clone())
		}
		maps.Copy(dump.Placements, s.pathShards[i].placement)
		for p, sites := range s.pathShards[i].replicas {
			dump.Replicas[p] = maps.Clone(sites)
		}
	}
	return dump
}

// snapshot compacts the log: it cuts the log onto a fresh segment at
// the LSN it captures, writes the snapshot, and deletes the segments
// the snapshot supersedes — so a snapshot always truncates, however
// many commits land while it is being written. force (Checkpoint)
// blocks on the snapshot mutex; the inline trigger path uses TryLock
// so at most one mutator pays the snapshot cost while the rest keep
// committing.
//
// Crash ordering (DESIGN.md §9): the new segment exists durably before
// a record can be acknowledged in it; the old ones are deleted only
// after the snapshot's rename is durable.
func (s *Store) snapshot(force bool) error {
	w := s.wal
	if force {
		w.snapMu.Lock()
	} else if !w.snapMu.TryLock() {
		return nil
	}
	defer w.snapMu.Unlock()

	next, err := w.fs.OpenAppend(w.segPath(w.seg + 1)) // seg moves only under snapMu
	if err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		next.Close()
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	// The cut and the clone see one consistent (state, LSN).
	thaw := s.freeze()
	lsn, covered, err := w.cut(next)
	if err != nil {
		thaw()
		next.Close()
		return err
	}
	dump := s.dump()
	thaw()
	dump.sort()

	// Synced before the rename: the rename must never make an unsynced
	// snapshot the authoritative one (see durafs: renamed files keep
	// their unsynced tails volatile).
	tmp, path := w.dir+"/"+snapName+".tmp", w.dir+"/"+snapName
	size, err := writeSnapshot(w.fs, tmp, lsn, &dump)
	if err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := w.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("metadata: snapshot: %w", err)
	}
	w.snapshots.Add(1)
	w.snapBytes.Add(size)
	w.compacted(covered, dump.items())
	return nil
}

// writeSnapshot writes the snapshot file at name — the document in ID
// and key order, then the trailer — and syncs it; the caller makes the
// directory entry durable. It returns the bytes written.
func writeSnapshot(fsys durafs.FS, name string, lastLSN uint64, dump *storeDump) (int64, error) {
	f, err := fsys.Create(name)
	if err != nil {
		return 0, err
	}
	crc := crc32.New(castagnoli)
	// A failed Write sticks in bw: Flush returns it.
	bw := bufio.NewWriterSize(io.MultiWriter(f, crc), 64<<10)
	var size int64
	raw := func(s string) {
		n, _ := bw.WriteString(s)
		size += int64(n)
	}
	val := func(v any) {
		b, merr := json.Marshal(v)
		err = cmp.Or(err, merr)
		n, _ := bw.Write(b)
		size += int64(n)
	}
	raw(fmt.Sprintf(`{"seq":%d,"last_lsn":%d,"datasets":[`, dump.Seq, lastLSN))
	for i := range dump.Datasets {
		if i > 0 {
			raw(",")
		}
		val(&dump.Datasets[i])
	}
	raw(`],"placements":`)
	streamObject(dump.Placements, raw, val)
	raw(`,"replicas":`)
	streamObject(dump.Replicas, raw, val)
	raw("}")
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		_, err = f.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return size + snapTrailerSize, err
}

// streamObject writes m as a JSON object through raw and val, a value
// at a time, keys in order.
func streamObject[V any](m map[string]V, raw func(string), val func(any)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	raw("{")
	for i, k := range keys {
		if i > 0 {
			raw(",")
		}
		val(k)
		raw(":")
		val(m[k])
	}
	raw("}")
}

// loadSnapshot reads and decodes the snapshot file; ok=false means no
// snapshot exists (a fresh store). A snapshot that exists but cannot be
// opened is an error: the segments it covers are gone, so opening
// without it would drop the store's compacted history.
func (w *walLog) loadSnapshot() (snap storeSnapshot, ok bool, err error) {
	data, err := w.readFile(w.dir + "/" + snapName)
	if errors.Is(err, fs.ErrNotExist) {
		return snap, false, nil // no snapshot yet
	}
	if err != nil {
		return snap, false, fmt.Errorf("metadata: snapshot read: %w", err)
	}
	snap, err = decodeSnapshot(data)
	return snap, err == nil, err
}

// decodeSnapshot decodes a snapshot file. It was synced before its
// rename, so a checksum that does not match the document is damage.
func decodeSnapshot(data []byte) (snap storeSnapshot, err error) {
	doc := data[:max(len(data)-snapTrailerSize, 0)]
	if trailer := data[len(doc):]; len(trailer) != snapTrailerSize ||
		binary.LittleEndian.Uint32(trailer) != crc32.Checksum(doc, castagnoli) {
		return snap, fmt.Errorf("%w: checksum does not match the document", ErrSnapshotCorrupt)
	}
	if err := json.Unmarshal(doc, &snap); err != nil {
		return snap, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return snap, nil
}

// Checkpoint forces a compacted snapshot, leaving the log with only
// what commits after it. A clean shutdown that Checkpoints first
// recovers instantly (no replay).
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	return s.snapshot(true)
}
