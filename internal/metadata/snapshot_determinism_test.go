package metadata

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/metadata/durafs"
)

// fixedClock returns a deterministic timestamp source: each call
// advances one second from the epoch.
func fixedClock() func() time.Time {
	base := time.Unix(1_300_000_000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	}
}

// buildDeterministic runs a fixed mutation script against a fresh
// durable store on its own MemFS and checkpoints it.
func buildDeterministic(t *testing.T) (*Store, *durafs.MemFS) {
	t.Helper()
	mem := durafs.NewMem()
	s, err := Open(Options{Shards: 4, SnapshotEvery: 1 << 20, WALDir: "/wal", FS: mem, Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]CreateSpec, 24)
	for i := range specs {
		specs[i] = CreateSpec{
			Project: fmt.Sprintf("proj-%d", i%3),
			Path:    fmt.Sprintf("/det/%02d", i),
			Size:    1 << uint(i%20),
			Basic:   map[string]string{"k": "v", "i": fmt.Sprint(i)},
			Tags:    []string{"raw", "det"},
		}
	}
	for _, res := range s.CreateBatch(specs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		s.NotePlacement("/cache"+res.Dataset.Path, "resident")
		s.NoteReplica(res.Dataset.Path, "dkrz", "valid")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return s, mem
}

// readFSFile returns name's bytes. A failure is an Errorf and no
// bytes, not a Fatalf: the compaction test calls it off the test
// goroutine.
func readFSFile(t *testing.T, fsys durafs.FS, name string) []byte {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Errorf("open %s: %v", name, err)
		return nil
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Errorf("read %s: %v", name, err)
	}
	return data
}

// TestSnapshotDeterministic asserts that the same mutation sequence
// under the same injected clock produces byte-identical snapshot
// files — datasets are sorted by ID and JSON map keys are ordered, so
// nothing about map iteration or scheduling may leak into the bytes.
// It also asserts a second Checkpoint with no intervening mutations
// rewrites the identical bytes (snapshots are a pure function of
// state).
func TestSnapshotDeterministic(t *testing.T) {
	s1, mem1 := buildDeterministic(t)
	s2, mem2 := buildDeterministic(t)
	defer s1.Close()
	defer s2.Close()

	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("/wal/shard-%03d.snap", i)
		b1 := readFSFile(t, mem1, name)
		b2 := readFSFile(t, mem2, name)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("shard %d snapshots differ across identical runs (%d vs %d bytes)", i, len(b1), len(b2))
		}
		if err := s1.snapshotShard(i, true); err != nil {
			t.Fatal(err)
		}
		if again := readFSFile(t, mem1, name); !bytes.Equal(b1, again) {
			t.Fatalf("shard %d snapshot not idempotent under re-Checkpoint", i)
		}
	}
}

// TestSnapshotExportEquivalence pins the documented relationship: a
// snapshot is a per-shard Export plus a WAL position. The union of
// all shard snapshots must carry exactly the datasets, placements and
// replicas that Export reports, and recovery from snapshots alone
// (post-Checkpoint, no WAL replay) must Export identically.
func TestSnapshotExportEquivalence(t *testing.T) {
	s, mem := buildDeterministic(t)
	defer s.Close()

	var exported bytes.Buffer
	if err := s.Export(&exported); err != nil {
		t.Fatal(err)
	}

	// Union the decoded snapshot files.
	var fromSnaps []Dataset
	places := make(map[string]string)
	for i := 0; i < 4; i++ {
		snap, ok, err := s.loadSnapshot(i)
		if err != nil || !ok {
			t.Fatalf("loadSnapshot(%d): ok=%v err=%v", i, ok, err)
		}
		fromSnaps = append(fromSnaps, snap.Datasets...)
		for k, v := range snap.Placements {
			places[k] = v
		}
	}
	if got, want := len(fromSnaps), len(s.Find(Query{})); got != want {
		t.Fatalf("snapshots hold %d datasets, store has %d", got, want)
	}
	byID := make(map[string]Dataset, len(fromSnaps))
	for _, d := range fromSnaps {
		byID[d.ID] = d
	}
	for _, d := range s.Find(Query{}) {
		sd, ok := byID[d.ID]
		if !ok {
			t.Fatalf("dataset %s missing from snapshots", d.ID)
		}
		if sd.Path != d.Path || len(sd.Tags) != len(d.Tags) {
			t.Fatalf("snapshot copy of %s diverges: %+v vs %+v", d.ID, sd, d)
		}
	}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/cache/det/%02d", i)
		if places[p] != "resident" {
			t.Fatalf("placement %s missing from snapshots (got %q)", p, places[p])
		}
	}

	// Recover purely from snapshots and compare Exports.
	r, err := Open(Options{Shards: 4, WALDir: "/wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.RecoveryStats(); st.RecordsReplayed != 0 || st.SnapshotsLoaded != 4 {
		t.Fatalf("post-Checkpoint recovery should be snapshot-only: %+v", st)
	}
	var rexported bytes.Buffer
	if err := r.Export(&rexported); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Bytes(), rexported.Bytes()) {
		t.Fatalf("Export after snapshot-only recovery differs (%d vs %d bytes)",
			exported.Len(), rexported.Len())
	}
}
