package metadata

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/metadata/durafs"
)

// WAL errors. Any I/O failure on a shard's log marks that shard
// fail-stop (ErrWALFailed wraps the cause): the in-memory state may
// be ahead of the disk, so rather than risk silently acknowledging
// undurable mutations, every subsequent mutation on the shard
// refuses until the store is reopened — the PostgreSQL
// panic-on-fsync-failure discipline, scoped to one shard.
var (
	// ErrWALFailed marks a shard whose log hit an I/O error; all
	// further mutations on it return this error.
	ErrWALFailed = errors.New("metadata: WAL failed, shard is fail-stop")
	// ErrWALCorrupt reports a record that framed correctly (length and
	// CRC were consistent) but did not decode — disk corruption past
	// what torn-tail truncation can explain.
	ErrWALCorrupt = errors.New("metadata: WAL record corrupt")
	// ErrWALConfig reports a WAL directory whose manifest does not
	// match the store options it is being opened with.
	ErrWALConfig = errors.New("metadata: WAL directory config mismatch")
)

// WAL record operations. Records are self-describing JSON payloads
// inside CRC-framed envelopes; the op selects which fields matter.
const (
	opCreate    = "create"    // full Dataset (tags applied at create included)
	opTag       = "tag"       // ID + Tag
	opUntag     = "untag"     // ID + Tag
	opProc      = "proc"      // ID + Proc
	opDelete    = "delete"    // ID
	opPlacement = "placement" // Path + State
	opReplica   = "replica"   // Path + Site + State
)

// walRecord is one journaled mutation. LSN is monotonically
// increasing per shard log; Seq is the store's ID-allocation
// watermark at stage time, so recovery can restore the counter
// without parsing dataset IDs.
type walRecord struct {
	LSN     uint64      `json:"lsn"`
	Seq     int64       `json:"seq,omitempty"`
	Op      string      `json:"op"`
	Dataset *Dataset    `json:"dataset,omitempty"`
	ID      string      `json:"id,omitempty"`
	Tag     string      `json:"tag,omitempty"`
	Proc    *Processing `json:"proc,omitempty"`
	Path    string      `json:"path,omitempty"`
	Site    string      `json:"site,omitempty"`
	State   string      `json:"state,omitempty"`
}

// Frame layout: [u32 payload length][u32 CRC32-C of payload][payload].
// Little-endian, Castagnoli polynomial (hardware-accelerated on
// amd64/arm64). A frame whose length field exceeds maxWALRecord is
// treated as torn — it bounds allocation when scanning garbage.
const (
	walHeaderSize = 8
	maxWALRecord  = 1 << 26 // 64 MiB; a metadata record is ~KBs
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed payload to buf and returns it.
func appendFrame(buf, payload []byte) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// encodeRecord frames one record.
func encodeRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return appendFrame(nil, payload), nil
}

// decodeFrame reads one frame from b. It returns the payload and the
// total bytes consumed, or ok=false if the bytes at the head of b do
// not form a complete, checksum-valid frame (a torn tail).
func decodeFrame(b []byte) (payload []byte, consumed int, ok bool) {
	if len(b) < walHeaderSize {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > maxWALRecord || walHeaderSize+int(n) > len(b) {
		return nil, 0, false
	}
	payload = b[walHeaderSize : walHeaderSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, false
	}
	return payload, walHeaderSize + int(n), true
}

// decodeWALStream scans b for framed records. It returns the decoded
// records and the byte offset of the first invalid frame — the
// truncation point for recovery. A frame that passes its checksum
// but fails to decode as a record is not a torn tail; it reports
// ErrWALCorrupt (with the records and offset preceding it). The scan
// never panics on arbitrary input (FuzzWALDecode holds it to that).
func decodeWALStream(b []byte) (recs []walRecord, valid int, err error) {
	for valid < len(b) {
		payload, consumed, ok := decodeFrame(b[valid:])
		if !ok {
			return recs, valid, nil
		}
		var rec walRecord
		if uerr := json.Unmarshal(payload, &rec); uerr != nil {
			return recs, valid, fmt.Errorf("%w: offset %d: %v", ErrWALCorrupt, valid, uerr)
		}
		recs = append(recs, rec)
		valid += consumed
	}
	return recs, valid, nil
}

// walShard is one shard's append-only log with leader-based group
// commit. Mutators stage encoded records while holding their shard
// (or path-shard) lock — a cheap append — then call waitDurable
// after releasing it. The first waiter becomes the commit leader: it
// optionally sleeps GroupCommitInterval to let more records gather,
// swaps out the whole pending batch, writes it in one Write and one
// Sync, and wakes every waiter. Concurrent mutators therefore share
// fsyncs instead of paying one each, and a CreateBatch's per-shard
// group commits in a single sync.
//
// The log is a run of numbered segment files; appends go to the
// newest. A snapshot cuts the log onto a fresh segment at the LSN it
// captures (cut) and, once durable, deletes the older ones (compacted).
type walShard struct {
	fs       durafs.FS
	segPath  func(seg int) string
	interval time.Duration

	mu         sync.Mutex
	file       durafs.File // append handle on segment seg, opened lazily
	firstSeg   int         // oldest segment still on disk
	seg        int         // segment appends go to
	nextLSN    uint64      // next LSN to hand out
	stagedLSN  uint64      // highest LSN staged (== nextLSN-1)
	durableLSN uint64      // highest LSN on disk
	pending    []byte      // encoded frames awaiting commit
	committing bool
	commitDone chan struct{} // closed when the current leader finishes
	err        error         // sticky fail-stop cause

	// recordsSinceSnap counts the committed records no durable
	// snapshot covers — what a restart would replay. The shard compacts
	// when it reaches max(SnapshotEvery, snapItems): a snapshot's cost
	// is spread over at least as many records as it wrote items.
	recordsSinceSnap int
	snapItems        int
}

func newWALShard(fs durafs.FS, segPath func(int) string, interval time.Duration, startLSN uint64) *walShard {
	return &walShard{
		fs:         fs,
		segPath:    segPath,
		interval:   interval,
		nextLSN:    startLSN + 1,
		stagedLSN:  startLSN,
		durableLSN: startLSN,
		commitDone: make(chan struct{}),
	}
}

// stage encodes rec, assigns it the next LSN and queues it for the
// next group commit. Callers hold the owning structure's lock, which
// is what makes LSN order equal apply order. The assigned LSN is
// returned for waitDurable.
func (w *walShard) stage(rec walRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	rec.LSN = w.nextLSN
	frame, err := encodeRecord(rec)
	if err != nil {
		// Marshal of our own types failing is a programming error;
		// fail stop rather than lose the record silently.
		w.err = fmt.Errorf("%w: encode: %v", ErrWALFailed, err)
		return 0, w.err
	}
	w.nextLSN++
	w.stagedLSN = rec.LSN
	w.pending = append(w.pending, frame...)
	return rec.LSN, nil
}

// waitDurable blocks until every record up to lsn is on disk,
// becoming the commit leader if nobody else is. It returns the
// shard's sticky error if the log has failed.
func (w *walShard) waitDurable(lsn uint64) error {
	for {
		w.mu.Lock()
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return err
		}
		if w.durableLSN >= lsn {
			w.mu.Unlock()
			return nil
		}
		if w.committing {
			ch := w.commitDone
			w.mu.Unlock()
			<-ch
			continue
		}
		// Become leader.
		w.committing = true
		w.mu.Unlock()

		if w.interval > 0 {
			// The group-commit window: let concurrent mutators pile
			// more records into pending before paying the fsync.
			time.Sleep(w.interval)
		}

		w.mu.Lock()
		batch := w.pending
		batchLSN := w.stagedLSN
		w.pending = nil
		w.mu.Unlock()

		err := w.commit(batch)

		w.mu.Lock()
		if err != nil {
			w.err = fmt.Errorf("%w: %v", ErrWALFailed, err)
		} else {
			w.durableLSN = batchLSN
			w.recordsSinceSnap += countFrames(batch)
		}
		w.committing = false
		ch := w.commitDone
		w.commitDone = make(chan struct{})
		w.mu.Unlock()
		close(ch)
	}
}

// commit writes and syncs one batch. Called only by the leader, so
// file access is single-threaded.
func (w *walShard) commit(batch []byte) error {
	if len(batch) == 0 {
		return nil
	}
	f, err := w.openFile()
	if err != nil {
		return err
	}
	if _, err := f.Write(batch); err != nil {
		return err
	}
	return f.Sync()
}

// openFile lazily opens the append handle (leader-only).
func (w *walShard) openFile() (durafs.File, error) {
	w.mu.Lock()
	f, path := w.file, w.segPath(w.seg)
	w.mu.Unlock()
	if f != nil {
		return f, nil
	}
	f, err := w.fs.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.file = f
	w.mu.Unlock()
	return f, nil
}

// undurable returns the highest LSN staged but not on disk, 0 for none.
func (w *walShard) undurable() (lsn uint64) {
	w.mu.Lock()
	if w.stagedLSN > w.durableLSN {
		lsn = w.stagedLSN
	}
	w.mu.Unlock()
	return lsn
}

// cut commits everything staged to the active segment and switches
// appends to next, a segment the caller has already created and made
// durable in the directory. The caller holds the shard's dataset and
// path locks, so nothing can stage meanwhile and the returned LSN is
// an exact boundary: every older segment holds only records at or
// below it, next only records above it. records is how many
// committed records a snapshot at that LSN covers. That one commit —
// a GroupCommitInterval's wait included, when one is set — is the only
// I/O done under the shard locks.
func (w *walShard) cut(next durafs.File) (lsn uint64, records int, err error) {
	if err := w.waitDurable(w.undurable()); err != nil {
		return 0, 0, err
	}
	// Staging is frozen and durable == staged: no leader is running
	// and none can start, so the handle is ours to swap.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file != nil {
		w.file.Close()
	}
	w.file = next
	w.seg++
	return w.stagedLSN, w.recordsSinceSnap, nil
}

// compacted is called once the snapshot taken at the last cut is
// durable: the segments before the cut go, and what the snapshot
// covered comes off the compaction trigger. A segment that survives
// its Remove is harmless: replay skips its records by LSN.
func (w *walShard) compacted(records, items int) {
	w.mu.Lock()
	first, seg := w.firstSeg, w.seg
	w.firstSeg = seg
	w.recordsSinceSnap -= records
	w.snapItems = items
	w.mu.Unlock()
	for n := first; n < seg; n++ {
		_ = w.fs.Remove(w.segPath(n))
	}
}

// close commits anything pending, releases the file handle and
// marks the shard closed: further mutations on it return
// ErrWALFailed rather than silently journaling to a reopened log.
func (w *walShard) close() error {
	err := w.waitDurable(w.undurable())
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file != nil {
		w.file.Close()
		w.file = nil
	}
	if w.err == nil {
		w.err = fmt.Errorf("%w: store closed", ErrWALFailed)
	}
	return err
}

// countFrames counts the records in an encoded batch.
func countFrames(batch []byte) int {
	n := 0
	for len(batch) >= walHeaderSize {
		sz := binary.LittleEndian.Uint32(batch[0:4])
		batch = batch[walHeaderSize+int(sz):]
		n++
	}
	return n
}
