package metadata

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metadata/durafs"
	"repro/internal/units"
)

// openMem opens a durable store on the given MemFS (or a fresh one).
func openMem(t *testing.T, fs durafs.FS, opts Options) *Store {
	t.Helper()
	opts.WALDir = "/wal"
	opts.FS = fs
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// appendFrame appends payload to buf framed as the log frames a record.
func appendFrame(buf, payload []byte) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(buf, hdr[:]...), payload...)
}

// encodeRecord frames one record as the log does.
func encodeRecord(rec walRecord) ([]byte, error) {
	lsn := rec.LSN
	rec.LSN = 0
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return appendRecord(nil, lsn, body), nil
}

// decodeWALStream is scanWAL collecting the records.
func decodeWALStream(b []byte) (recs []walRecord, valid int, err error) {
	valid, err = scanWAL(b, func(rec *walRecord) { recs = append(recs, *rec) })
	return recs, valid, err
}

// TestDurableBasicRecovery: every kind of mutation survives a clean
// close-and-reopen through WAL replay alone (no snapshot).
func TestDurableBasicRecovery(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{})
	d1, err := s.Create("p", "/a/1", 4*units.MB, "crc1", map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Create("p", "/a/2", 1*units.MB, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tag(d1.ID, "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Tag(d1.ID, "hot"); err != nil {
		t.Fatal(err)
	}
	if err := s.Untag(d1.ID, "hot"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddProcessing(d1.ID, Processing{Tool: "seg", Results: map[string]string{"cells": "42"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(d2.ID); err != nil {
		t.Fatal(err)
	}
	placeRow(s, "/ddn/a/1", TierMigrated)
	s.AddReplica("/a/1", "gridka", testDigest("/a/1"))
	s.Close()

	r := openMem(t, fs, Options{})
	if r.Count() != 1 {
		t.Fatalf("recovered %d datasets, want 1", r.Count())
	}
	got, ok := r.Get(d1.ID)
	if !ok {
		t.Fatalf("dataset %s not recovered", d1.ID)
	}
	if got.Path != "/a/1" || got.Basic["k"] != "v" || got.Checksum != "crc1" {
		t.Fatalf("recovered dataset mangled: %+v", got)
	}
	if len(got.Tags) != 1 || got.Tags[0] != "raw" {
		t.Fatalf("recovered tags = %v, want [raw]", got.Tags)
	}
	if len(got.Processings) != 1 || got.Processings[0].Results["cells"] != "42" {
		t.Fatalf("recovered processings = %+v", got.Processings)
	}
	if _, ok := r.Get(d2.ID); ok {
		t.Fatal("deleted dataset resurrected")
	}
	if _, ok := r.ByPath("/a/2"); ok {
		t.Fatal("deleted dataset's path still claimed")
	}
	if pl, ok := placed(r, "/ddn/a/1"); !ok || pl != TierMigrated {
		t.Fatalf("placement = %v, %v", pl, ok)
	}
	if st, _ := r.Replica("/a/1", "gridka"); st != ReplicaValid {
		t.Fatalf("replicas = %v", r.Replicas("/a/1"))
	}
	if d, ok := r.Digest("/a/1"); !ok || !sameDigest(d, testDigest("/a/1")) {
		t.Fatalf("digest = %+v, %v", d, ok)
	}
	// Indexes rebuilt: tag query finds the dataset.
	if hits := r.Find(Query{Tags: []string{"raw"}}); len(hits) != 1 || hits[0].ID != d1.ID {
		t.Fatalf("tag index broken after recovery: %v", hits)
	}
	// The ID sequence resumes past recovered datasets.
	d3, err := r.Create("p", "/a/3", 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d3.ID <= d1.ID {
		t.Fatalf("sequence regressed: new %s <= old %s", d3.ID, d1.ID)
	}
	r.Close()
}

// TestDurableSnapshotCompaction: once SnapshotEvery records are
// committed, recovery loads from snapshots and replays only the
// tail; a Checkpoint empties the tail entirely.
func TestDurableSnapshotCompaction(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{Shards: 4, SnapshotEvery: 8})
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/c/%03d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Snapshots() == 0 {
		t.Fatal("no snapshots written despite SnapshotEvery=8")
	}
	s.Close()

	r := openMem(t, fs, Options{Shards: 4, SnapshotEvery: 8})
	st := r.RecoveryStats()
	if st.SnapshotsLoaded == 0 {
		t.Fatalf("recovery used no snapshots: %+v", st)
	}
	if st.SnapshotDatasets+st.RecordsReplayed < n {
		t.Fatalf("snapshot(%d) + replay(%d) < %d created", st.SnapshotDatasets, st.RecordsReplayed, n)
	}
	if r.Count() != n {
		t.Fatalf("recovered %d, want %d", r.Count(), n)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2 := openMem(t, fs, Options{Shards: 4, SnapshotEvery: 8})
	st2 := r2.RecoveryStats()
	if st2.RecordsReplayed != 0 {
		t.Fatalf("after Checkpoint, %d records still replayed", st2.RecordsReplayed)
	}
	if r2.Count() != n {
		t.Fatalf("post-checkpoint recovery %d, want %d", r2.Count(), n)
	}
	r2.Close()
}

// TestDurableBatchRecovery: a CreateBatch and its tags survive reopen.
func TestDurableBatchRecovery(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{})
	specs := make([]CreateSpec, 64)
	for i := range specs {
		specs[i] = CreateSpec{Project: "p", Path: fmt.Sprintf("/b/%03d", i), Size: 1, Tags: []string{"raw", "verified"}}
	}
	for _, res := range s.CreateBatch(specs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	s.Close()

	r := openMem(t, fs, Options{})
	if r.Count() != 64 {
		t.Fatalf("recovered %d, want 64", r.Count())
	}
	hits := r.Find(Query{Tags: []string{"raw", "verified"}})
	if len(hits) != 64 {
		t.Fatalf("tagged recovery: %d hits, want 64", len(hits))
	}
	r.Close()
}

// TestDurableFailStop: a failed fsync fails the mutation with
// ErrWALFailed and the store refuses further mutations instead of
// silently acknowledging undurable writes.
func TestDurableFailStop(t *testing.T) {
	ff := durafs.NewFault(durafs.NewMem(), nil)
	s := openMem(t, ff, Options{Shards: 1})
	if _, err := s.Create("p", "/ok", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	ff.FailSyncs(1)
	_, err := s.Create("p", "/bad", 1, "", nil)
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("create with failed sync: err = %v, want ErrWALFailed", err)
	}
	if _, err := s.Create("p", "/after", 1, "", nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("store not fail-stop after sync failure: err = %v", err)
	}
	// Power loss after the failed fsync: the record the disk refused
	// to sync is still sitting in the page cache, so it dies with the
	// machine. Recovery from what actually hit the platter is clean —
	// the acknowledged dataset is there, the failed one is not.
	ff.Inner().Crash(nil)
	r := openMem(t, ff.Inner(), Options{Shards: 1})
	if _, ok := r.ByPath("/ok"); !ok {
		t.Fatal("acknowledged dataset lost")
	}
	if _, ok := r.ByPath("/bad"); ok {
		t.Fatal("unacknowledged dataset recovered despite failed sync")
	}
	r.Close()
}

// TestDurableTornTailTruncated: garbage appended to a WAL (a torn
// final record) is truncated on open; everything before it recovers.
func TestDurableTornTailTruncated(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{Shards: 1})
	for i := 0; i < 10; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/t/%d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	f, err := fs.OpenAppend("/wal/log-000000.wal")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // half a header
	f.Sync()
	f.Close()

	r := openMem(t, fs, Options{Shards: 1})
	if r.Count() != 10 {
		t.Fatalf("recovered %d, want 10", r.Count())
	}
	st := r.RecoveryStats()
	if st.TornTails != 1 || st.TornTailBytes != 3 {
		t.Fatalf("torn-tail stats = %+v", st)
	}
	// Appends continue cleanly on the truncated log.
	if _, err := r.Create("p", "/t/new", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openMem(t, fs, Options{Shards: 1})
	if r2.Count() != 11 {
		t.Fatalf("post-truncate append lost: %d", r2.Count())
	}
	r2.Close()
}

// TestDurableReopensAtAnyShardCount: the shards are lock stripes, not
// logs, so a WAL directory written at one shard count reopens at any
// other with every dataset, tag, placement and replica note — through
// pure replay and through a snapshot.
func TestDurableReopensAtAnyShardCount(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{Shards: 1})
	const n = 40
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/r/%02d", i)
		d, err := s.Create("p", path, 1, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Tag(d.ID, fmt.Sprintf("t%d", i%3)); err != nil {
			t.Fatal(err)
		}
		placeRow(s, "/ddn"+path, TierPremigrated)
		s.AddReplica(path, "kit", testDigest(path))
	}
	var want bytes.Buffer
	if err := s.Export(&want); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, shards := range []int{16, 4} {
		r := openMem(t, fs, Options{Shards: shards})
		if r.Shards() != shards {
			t.Fatalf("reopened with %d shards, want %d", r.Shards(), shards)
		}
		var got bytes.Buffer
		if err := r.Export(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("at %d shards the store recovered differently:\nwant %s\ngot  %s", shards, want.Bytes(), got.Bytes())
		}
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/r/%02d", i)
			d, ok := r.ByPath(path)
			if !ok || !d.HasTag(fmt.Sprintf("t%d", i%3)) {
				t.Fatalf("at %d shards %s recovered as %+v, %v", shards, path, d, ok)
			}
			if pl, _ := placed(r, "/ddn"+path); pl != TierPremigrated {
				t.Fatalf("at %d shards the placement of %s is %v", shards, path, pl)
			}
			if st, _ := r.Replica(path, "kit"); st != ReplicaValid {
				t.Fatalf("at %d shards the replicas of %s are %v", shards, path, r.Replicas(path))
			}
		}
		if err := r.Checkpoint(); err != nil { // the next reopen starts from a snapshot
			t.Fatal(err)
		}
		r.Close()
	}
}

// TestDurableGroupCommit: concurrent writers share fsyncs — with a
// commit window configured, the sync count stays far below the
// mutation count.
func TestDurableGroupCommit(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{Shards: 1, GroupCommitInterval: 2 * time.Millisecond})
	const writers, each = 8, 25
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if _, err := s.Create("p", fmt.Sprintf("/g/%d/%d", w, i), 1, "", nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r := openMem(t, fs, Options{Shards: 1})
	if r.Count() != writers*each {
		t.Fatalf("recovered %d, want %d", r.Count(), writers*each)
	}
	r.Close()
}

// equivalenceWorkload drives a seeded mix of every mutation the store
// has: each op at least once, then forty more drawn by rng.
func equivalenceWorkload(t *testing.T, s *Store, rng *rand.Rand) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tags := []string{"raw", "hot", "cal", "done"}
	sites := []string{"kit", "desy", "gridka"}
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	var live []Dataset // registered and not deleted
	var freed []string // paths of deleted datasets
	n := 0
	ops := []func(){
		func() { // CreateBatch with tags (unsorted, repeated) and an in-batch duplicate
			specs := make([]CreateSpec, 2+rng.Intn(4))
			for i := range specs {
				n++
				specs[i] = CreateSpec{Project: pick([]string{"p", "q"}), Path: fmt.Sprintf("/e/%03d", n), Size: units.Bytes(n),
					Basic: map[string]string{"n": fmt.Sprint(n)}, Tags: []string{pick(tags), pick(tags), pick(tags)}[:rng.Intn(4)]}
			}
			specs = append(specs, specs[0])
			res := s.CreateBatch(specs)
			if last := res[len(res)-1]; !errors.Is(last.Err, ErrDuplicate) {
				t.Fatalf("in-batch duplicate: err = %v", last.Err)
			}
			for _, r := range res[:len(res)-1] {
				check(r.Err)
				live = append(live, r.Dataset)
			}
		},
		func() { // Tag, then the same Tag again: the second changes nothing
			d, tag := live[rng.Intn(len(live))], pick(tags)
			check(s.Tag(d.ID, tag))
			before, _ := s.Get(d.ID)
			check(s.Tag(d.ID, tag))
			if after, _ := s.Get(d.ID); after.Version != before.Version {
				t.Fatalf("re-Tag moved version %d -> %d", before.Version, after.Version)
			}
		},
		func() { check(s.Untag(live[rng.Intn(len(live))].ID, pick(tags))) },
		func() {
			_, err := s.AddProcessing(live[rng.Intn(len(live))].ID, Processing{Tool: pick(tags), Params: map[string]string{"k": pick(tags)}, Outputs: []string{"/out"}})
			check(err)
		},
		func() { // Delete, and later re-Create of the same path
			if len(live) < 2 {
				return
			}
			i := rng.Intn(len(live))
			check(s.Delete(live[i].ID))
			freed = append(freed, live[i].Path)
			live = append(live[:i], live[i+1:]...)
		},
		func() {
			if len(freed) == 0 {
				return
			}
			d, err := s.Create("p", freed[0], 7, "sum", nil)
			check(err)
			live, freed = append(live, d), freed[1:]
		},
		func() { // a tier's row: moved, re-pinned or dropped
			p := live[rng.Intn(len(live))].Path
			if rng.Intn(4) == 0 {
				check(s.Place("/ddn"+p, nil))
				return
			}
			check(s.Place("/ddn"+p, &Placement{State: TierState(rng.Intn(3)), Digest: testDigest(p),
				ModTime: time.Date(2011, 5, 16, 9, rng.Intn(60), 0, 0, time.UTC), Pinned: rng.Intn(2) == 0}))
		},
		// Few sites: states get overwritten. Notes on a path without a
		// row, or on a site its row lacks, are refused.
		func() { p := live[rng.Intn(len(live))].Path; s.AddReplica(p, pick(sites), testDigest(p)) },
		func() { s.SetReplica(live[rng.Intn(len(live))].Path, pick(sites), ReplicaState(1+rng.Intn(5))) },
		func() { p := live[rng.Intn(len(live))].Path; s.SetReplicaValid(p, pick(sites), testDigest(p)) },
		func() { s.DropReplica(live[rng.Intn(len(live))].Path, pick(sites)) },
		func() { s.DropReplicas(live[rng.Intn(len(live))].Path) },
	}
	for _, op := range ops {
		op()
	}
	for i := 0; i < 40; i++ {
		ops[rng.Intn(len(ops))]()
	}
}

// TestDurableExportImportEquivalence: over a seeded mix of every op,
// what recovery rebuilds is what the live path acknowledged — Export
// of the recovered store is byte-identical to the Export before the
// close, through a snapshot plus a tail (SnapshotEvery 4) and through
// pure replay (the default) — and Importing that Export into a fresh
// durable store journals it: its own reopen Exports the same bytes.
func TestDurableExportImportEquivalence(t *testing.T) {
	export := func(s *Store) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, every := range []int{4, 0} {
		for seed := int64(0); seed < 20; seed++ {
			t.Run(fmt.Sprintf("every=%d/seed=%d", every, seed), func(t *testing.T) {
				base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
				tick := 0
				clock := func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }
				opts := Options{Shards: 4, SnapshotEvery: every}

				fs := durafs.NewMem()
				opts.Clock = clock
				s := openMem(t, fs, opts)
				equivalenceWorkload(t, s, rand.New(rand.NewSource(seed)))
				if s.WALTailRecords() == 0 {
					// The workload ended on a snapshot: one record past it,
					// so that recovery replays a tail.
					placeRow(s, "/tail", TierResident)
				}
				before := export(s)
				snapshots := s.Snapshots()
				s.Close()
				if (snapshots > 0) != (every > 0) {
					t.Fatalf("SnapshotEvery %d: %d snapshots", every, snapshots)
				}

				r := openMem(t, fs, opts)
				if after := export(r); !bytes.Equal(before, after) {
					t.Fatalf("Export changed across recovery:\nbefore: %s\nafter:  %s", before, after)
				}
				if st := r.RecoveryStats(); st.RecordsReplayed == 0 || (st.SnapshotsLoaded > 0) != (every > 0) {
					t.Fatalf("recovery did not take the intended route: %+v", st)
				}
				r.Close()

				// Import into a fresh durable store, reopen, Export again.
				fs2 := durafs.NewMem()
				s2 := openMem(t, fs2, opts)
				if err := s2.Import(bytes.NewReader(before)); err != nil {
					t.Fatal(err)
				}
				if imported := export(s2); !bytes.Equal(before, imported) {
					t.Fatal("Import -> Export is not the identity")
				}
				s2.Close()
				r2 := openMem(t, fs2, opts)
				if roundTrip := export(r2); !bytes.Equal(before, roundTrip) {
					t.Fatal("Import -> reopen -> Export is not the identity")
				}
				r2.Close()
			})
		}
	}
}

// TestDurableOSFilesystem runs the basic recovery loop against the
// real filesystem (t.TempDir) — the production durafs.OS path.
func TestDurableOSFilesystem(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{WALDir: dir, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/os/%03d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	placeRow(s, "/ddn/os/000", TierPremigrated)
	s.Close()

	r, err := Open(Options{WALDir: dir, SnapshotEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 50 {
		t.Fatalf("recovered %d, want 50", r.Count())
	}
	if pl, ok := placed(r, "/ddn/os/000"); !ok || pl != TierPremigrated {
		t.Fatalf("placement = %v, %v", pl, ok)
	}
	r.Close()
}

// TestWALRecordRoundTrip pins the frame format: encode then stream-
// decode returns the same records and consumes every byte.
func TestWALRecordRoundTrip(t *testing.T) {
	recs := []walRecord{
		{LSN: 1, Op: opCreate, Seq: 7, Dataset: &Dataset{ID: "ds-000007", Path: "/x", Project: "p", Version: 1}},
		{LSN: 2, Op: opTag, ID: "ds-000007", Tag: "raw"},
		{LSN: 3, Op: opPlacement, Path: "/x", Placement: &Placement{State: TierMigrated}},
		{LSN: 4, Op: opReplica, Path: "/x", Site: "kit", State: "valid"},
	}
	var buf []byte
	for _, rec := range recs {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	got, valid, err := decodeWALStream(buf)
	if err != nil {
		t.Fatal(err)
	}
	if valid != len(buf) {
		t.Fatalf("consumed %d of %d bytes", valid, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != recs[i].LSN || got[i].Op != recs[i].Op || got[i].Tag != recs[i].Tag ||
			got[i].Path != recs[i].Path || got[i].Site != recs[i].Site || got[i].State != recs[i].State {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// TestEveryOpHasATransition walks the op* constants declared in wal.go
// and fails if apply has no case for one: an op that can be journaled
// but not applied would be acknowledged live and dropped by replay.
func TestEveryOpHasATransition(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "wal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if i >= len(spec.Values) {
				break
			}
			if lit, ok := spec.Values[i].(*ast.BasicLit); ok && strings.HasPrefix(name.Name, "op") && lit.Kind == token.STRING {
				op, _ := strconv.Unquote(lit.Value)
				ops = append(ops, op)
			}
		}
		return false
	})
	if len(ops) < 7 {
		t.Fatalf("found only %v in wal.go", ops)
	}
	s := NewStoreWith(Options{Shards: 1})
	for _, op := range ops {
		if _, err := s.apply(&walRecord{Op: op}, nil); errors.Is(err, errNoTransition) {
			t.Errorf("op %q is declared but apply has no case for it", op)
		}
	}
	if _, err := s.apply(&walRecord{Op: "no-such-op"}, nil); !errors.Is(err, errNoTransition) {
		t.Fatalf("an unknown op applied: err = %v", err)
	}
}

// TestWALDecodePrefixPlusGarbage: a valid stream followed by garbage
// recovers exactly the valid prefix, for several garbage shapes.
func TestWALDecodePrefixPlusGarbage(t *testing.T) {
	var buf []byte
	var want []walRecord
	for i := 0; i < 5; i++ {
		rec := walRecord{LSN: uint64(i + 1), Op: opTag, ID: fmt.Sprintf("ds-%06d", i), Tag: "t"}
		want = append(want, rec)
		frame, _ := encodeRecord(rec)
		buf = append(buf, frame...)
	}
	garbages := [][]byte{
		{0x01},                               // short header
		{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, // absurd length field
		bytes.Repeat([]byte{0xaa}, 100),      // noise
		func() []byte { // correct length, bad CRC
			frame, _ := encodeRecord(walRecord{LSN: 99, Op: opTag})
			frame[4] ^= 0xff
			return frame
		}(),
		func() []byte { // valid frame with one byte chopped off
			frame, _ := encodeRecord(walRecord{LSN: 99, Op: opTag})
			return frame[:len(frame)-1]
		}(),
	}
	for gi, g := range garbages {
		recs, valid, err := decodeWALStream(append(append([]byte(nil), buf...), g...))
		if err != nil {
			t.Fatalf("garbage %d: err = %v", gi, err)
		}
		if valid != len(buf) {
			t.Fatalf("garbage %d: truncation offset %d, want %d", gi, valid, len(buf))
		}
		if len(recs) != len(want) {
			t.Fatalf("garbage %d: recovered %d records, want %d", gi, len(recs), len(want))
		}
		for i := range want {
			if recs[i].LSN != want[i].LSN {
				t.Fatalf("garbage %d: record %d LSN %d != %d", gi, i, recs[i].LSN, want[i].LSN)
			}
		}
	}
}

// TestWALCorruptPayloadTyped: a frame whose checksum passes but whose
// payload is not a record yields ErrWALCorrupt (not silence, not a
// panic) — and Open surfaces it.
func TestWALCorruptPayloadTyped(t *testing.T) {
	junk := appendFrame(nil, []byte("this is not json"))
	_, _, err := decodeWALStream(junk)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}

	fs := durafs.NewMem()
	s := openMem(t, fs, Options{Shards: 1})
	if _, err := s.Create("p", "/x", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, _ := fs.OpenAppend("/wal/log-000000.wal")
	f.Write(junk)
	f.Sync()
	f.Close()
	if _, err := Open(Options{Shards: 1, WALDir: "/wal", FS: fs}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("Open on corrupt payload: err = %v, want ErrWALCorrupt", err)
	}
}

// TestDurableNoWALIsNoop: a store without WALDir has a nil
// durability plane and zero recovery stats — the in-memory hot path
// is untouched.
func TestDurableNoWALIsNoop(t *testing.T) {
	s := NewStore()
	if s.Durable() {
		t.Fatal("plain store claims durability")
	}
	if st := s.RecoveryStats(); st != (RecoveryStats{}) {
		t.Fatalf("plain store has recovery stats: %+v", st)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on plain store: %v", err)
	}
	s.Close()
}

// TestDurableCorruptSnapshotTyped: a snapshot whose frame fails its
// checksum refuses recovery with ErrSnapshotCorrupt.
func TestDurableCorruptSnapshotTyped(t *testing.T) {
	fs := durafs.NewMem()
	s := openMem(t, fs, Options{Shards: 1, SnapshotEvery: 4})
	for i := 0; i < 12; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/s/%d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	f, err := fs.Open("/wal/store.snap")
	if err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	data, _ := io.ReadAll(f)
	f.Close()
	data[len(data)-1] ^= 0xff
	w, _ := fs.Create("/wal/store.snap")
	w.Write(data)
	w.Sync()
	w.Close()

	if _, err := Open(Options{Shards: 1, WALDir: "/wal", FS: fs}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}

// unreadableFS fails Open on every name with the suffix deny — the
// file is there, it cannot be read — and notes the files created.
type unreadableFS struct {
	durafs.FS
	deny    string
	created []string
}

func (u *unreadableFS) Open(name string) (durafs.File, error) {
	if strings.HasSuffix(name, u.deny) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
	}
	return u.FS.Open(name)
}

func (u *unreadableFS) Create(name string) (durafs.File, error) {
	u.created = append(u.created, name)
	return u.FS.Create(name)
}

// TestDurableUnreadableIsNotAbsent: a snapshot or log segment that
// exists but cannot be opened fails Open with the cause, and is not
// written over. Read as "absent", the snapshot would open the store
// without the history it compacted — its segments are deleted — and
// acknowledge new writes on top.
func TestDurableUnreadableIsNotAbsent(t *testing.T) {
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 1, SnapshotEvery: 4})
	for i := 0; i < 12; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/u/%d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Snapshots() == 0 {
		t.Fatal("no compacted history to lose")
	}
	s.Close()

	for _, deny := range []string{".snap", ".wal"} {
		ufs := &unreadableFS{FS: mem, deny: deny}
		r, err := Open(Options{Shards: 1, SnapshotEvery: 4, WALDir: "/wal", FS: ufs})
		if err == nil {
			n := r.Count()
			r.Close()
			t.Fatalf("unreadable %s: Open succeeded with %d of 12 datasets", deny, n)
		}
		if !errors.Is(err, fs.ErrPermission) {
			t.Errorf("unreadable %s: err = %v, want the open error wrapped", deny, err)
		}
		if len(ufs.created) > 0 {
			t.Errorf("unreadable %s: Open rewrote %v", deny, ufs.created)
		}
	}
	r := openMem(t, mem, Options{Shards: 1, SnapshotEvery: 4})
	defer r.Close()
	if r.Count() != 12 {
		t.Fatalf("readable again: recovered %d datasets, want 12", r.Count())
	}
}

// writeFiles creates each named file under /wal holding its bytes,
// synced.
func writeFiles(t *testing.T, fs durafs.FS, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		f, err := fs.Create("/wal/" + name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data)
		f.Sync()
		f.Close()
	}
}

// TestDurableRefusesPerShardLayout: a WAL directory in the layout of
// earlier builds — a MANIFEST, one log and one snapshot per shard — is
// refused by name, and nothing in it is written over or removed.
func TestDurableRefusesPerShardLayout(t *testing.T) {
	for _, name := range []string{"MANIFEST", "shard-000.wal", "shard-003-000002.wal", "shard-000.snap"} {
		t.Run(name, func(t *testing.T) {
			mem := durafs.NewMem()
			writeFiles(t, mem, map[string][]byte{name: []byte("old")})
			_, err := Open(Options{WALDir: "/wal", FS: mem})
			if !errors.Is(err, ErrWALConfig) || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "lsdfctl export") {
				t.Fatalf("Open: %v, want ErrWALConfig naming %s and the way out", err, name)
			}
			if names, _ := mem.ReadDir("/wal"); len(names) != 1 || string(readFSFile(t, mem, "/wal/"+name)) != "old" {
				t.Fatalf("the refused directory was changed: it holds %v", names)
			}
		})
	}
}

// TestTornSegmentBeforeRecordsIsCorrupt: a crash can tear only the
// newest segment that holds records — cut makes a segment durable
// before the next one gets any — so a torn segment with records after
// it is damage, and recovery refuses rather than replay over the hole.
// A torn segment followed only by an empty one (a snapshot that crashed
// after creating its segment) is still a crash artifact.
func TestTornSegmentBeforeRecordsIsCorrupt(t *testing.T) {
	frames := func(from, to int) []byte {
		var log []byte
		for n := from; n <= to; n++ {
			d := Dataset{ID: fmt.Sprintf("ds-%06d", n), Project: "p", Path: fmt.Sprintf("/torn/%d", n), Size: 1, Version: 1}
			frame, err := encodeRecord(walRecord{LSN: uint64(n), Seq: int64(n), Op: opCreate, Dataset: &d})
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, frame...)
		}
		return log
	}
	torn := append(frames(1, 3), 0xde, 0xad)

	mem := durafs.NewMem()
	writeFiles(t, mem, map[string][]byte{"log-000000.wal": torn, "log-000001.wal": frames(4, 5)})
	if s, err := Open(Options{WALDir: "/wal", FS: mem}); !errors.Is(err, ErrWALCorrupt) {
		if err == nil {
			t.Errorf("opened over the hole with %d datasets", s.Count())
			s.Close()
		}
		t.Fatalf("err = %v, want ErrWALCorrupt", err)
	}
	if data := readFSFile(t, mem, "/wal/log-000000.wal"); !bytes.Equal(data, torn) {
		t.Fatal("the refused segment was truncated")
	}

	mem = durafs.NewMem()
	writeFiles(t, mem, map[string][]byte{"log-000000.wal": torn, "log-000001.wal": nil})
	s := openMem(t, mem, Options{})
	if st := s.RecoveryStats(); s.Count() != 3 || st.TornTails != 1 {
		t.Fatalf("torn segment before an empty one: %d datasets, %+v", s.Count(), st)
	}
	if _, err := s.Create("p", "/torn/new", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openMem(t, mem, Options{})
	defer r.Close()
	if r.Count() != 4 {
		t.Fatalf("after the append: %d datasets, want 4", r.Count())
	}
}
