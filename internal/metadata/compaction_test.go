package metadata

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/metadata/durafs"
)

// compactionFS counts what compaction does to a MemFS: the snapshots
// written (a rename onto a .snap name), their bytes, and — through
// onCut — the instant a snapshot deletes the log segments it
// supersedes, which is the last thing a snapshot does.
type compactionFS struct {
	*durafs.MemFS

	mu        sync.Mutex
	snapshots int
	snapBytes int64
	lastBytes int64 // size of the newest snapshot
	tmpBytes  int64 // bytes written to the .snap.tmp being built
	onCut     func()
}

func (c *compactionFS) Create(name string) (durafs.File, error) {
	f, err := c.MemFS.Create(name)
	if err != nil || !strings.HasSuffix(name, ".snap.tmp") {
		return f, err
	}
	c.mu.Lock()
	c.tmpBytes = 0
	c.mu.Unlock()
	return &snapTmpFile{File: f, fs: c}, nil
}

func (c *compactionFS) Rename(oldname, newname string) error {
	if err := c.MemFS.Rename(oldname, newname); err != nil {
		return err
	}
	if strings.HasSuffix(newname, ".snap") {
		c.mu.Lock()
		c.snapshots++
		c.snapBytes += c.tmpBytes
		c.lastBytes = c.tmpBytes
		c.mu.Unlock()
	}
	return nil
}

func (c *compactionFS) Remove(name string) error {
	err := c.MemFS.Remove(name)
	if err == nil && strings.HasSuffix(name, ".wal") {
		c.onCut()
	}
	return err
}

type snapTmpFile struct {
	durafs.File
	fs *compactionFS
}

func (f *snapTmpFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.tmpBytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

// TestCompactionCostIndependentOfCatalog pins the two properties that
// keep a durable ingest batch's cost flat as the catalog grows, by
// counting I/O rather than timing it. (1) A snapshot always truncates:
// the moment it deletes the old segments, every record left in the
// shard's log is past its LastLSN — with four writers committing all
// the while. (2) Compaction is amortised: the number of snapshots
// grows with the logarithm of the records written, and all snapshots
// together wrote no more than a small multiple of the last one — not
// one full dump per SnapshotEvery records.
func TestCompactionCostIndependentOfCatalog(t *testing.T) {
	const (
		writers       = 4
		perWriter     = 4000 // creates; every 4th also tags → 20 000 records
		snapshotEvery = 64
	)
	cfs := &compactionFS{MemFS: durafs.NewMem()}
	var checks int
	var violations []string
	cfs.onCut = func() { // runs on the snapshotting goroutine; snapshots of one shard are serial
		checks++
		payload, _, ok := decodeFrame(readFSFile(t, cfs.MemFS, "/wal/shard-000.snap"))
		var snap shardSnapshot
		if !ok || json.Unmarshal(payload, &snap) != nil {
			violations = append(violations, "snapshot unreadable at its own cut")
			return
		}
		names, _ := cfs.MemFS.ReadDir("/wal")
		for _, name := range names {
			if !strings.HasSuffix(name, ".wal") {
				continue
			}
			recs, _, err := decodeWALStream(readFSFile(t, cfs.MemFS, "/wal/"+name))
			if err != nil {
				violations = append(violations, fmt.Sprintf("%s: %v", name, err))
			}
			for _, rec := range recs {
				if rec.LSN <= snap.LastLSN {
					violations = append(violations, fmt.Sprintf("snapshot %d (LastLSN %d): %s still holds LSN %d", checks, snap.LastLSN, name, rec.LSN))
					break
				}
			}
		}
	}

	s := openMem(t, cfs, Options{Shards: 1, SnapshotEvery: snapshotEvery})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d, err := s.Create("p", fmt.Sprintf("/cc/%d/%05d", w, i), 1, "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				if i%4 == 0 {
					if err := s.Tag(d.ID, "raw"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	records := writers * perWriter * 5 / 4
	if tail := s.WALTailRecords(); tail > int64(2*s.Count()) {
		t.Errorf("a restart would replay %d records, more than twice the %d datasets it restores", tail, s.Count())
	}
	s.Close()

	for _, v := range violations {
		t.Error(v)
	}
	if checks != cfs.snapshots {
		t.Errorf("%d snapshots but %d of them deleted the log they superseded", cfs.snapshots, checks)
	}
	if limit := int(2*math.Log2(float64(records)/snapshotEvery)) + 4; cfs.snapshots > limit || cfs.snapshots == 0 {
		t.Errorf("%d records cost %d snapshots, want 1..%d", records, cfs.snapshots, limit)
	}
	if cfs.snapBytes > 4*cfs.lastBytes {
		t.Errorf("snapshots wrote %d bytes in all, more than 4x the last one's %d", cfs.snapBytes, cfs.lastBytes)
	}
	t.Logf("%d records: %d snapshots, %d bytes in all, last %d", records, cfs.snapshots, cfs.snapBytes, cfs.lastBytes)

	// And what the log holds is the state: reopen and count.
	r := openMem(t, cfs.MemFS, Options{Shards: 1, SnapshotEvery: snapshotEvery})
	defer r.Close()
	if r.Count() != writers*perWriter {
		t.Fatalf("recovered %d datasets, want %d", r.Count(), writers*perWriter)
	}
	if st := r.RecoveryStats(); st.RecordsSkipped != 0 {
		t.Errorf("recovery skipped %d stale records: the log was not cut at the snapshot", st.RecordsSkipped)
	}
}
