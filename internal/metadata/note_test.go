package metadata

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata/durafs"
)

// pathOffShard returns a path whose notes live on another shard than
// the dataset with the given ID.
func pathOffShard(s *Store, id string) string {
	for i := 0; ; i++ {
		if p := fmt.Sprintf("/n/%d", i); fnv32a(p)&s.mask != fnv32a(id)&s.mask {
			return p
		}
	}
}

// digestOf is the digest of data, chain included.
func digestOf(data []byte) adal.Digest {
	h := adal.NewChainHasher()
	h.Write(data)
	return h.Digest()
}

func sameDigest(a, b adal.Digest) bool {
	return a.Size == b.Size && a.Sum == b.Sum && bytes.Equal(a.Chain, b.Chain)
}

// testDigest is the digest of a short object named by s.
func testDigest(s string) adal.Digest { return digestOf([]byte("content of " + s)) }

// placeRow stages path's placement row in st, with path's test digest.
func placeRow(s *Store, path string, st TierState) {
	s.Place(path, &Placement{State: st, Digest: testDigest(path), ModTime: time.Date(2011, 5, 16, 9, 0, 0, 0, time.UTC)})
}

// placed reports path's placement state, and whether it has a row.
func placed(s *Store, path string) (TierState, bool) {
	p, ok := s.Placements("")[path]
	return p.State, ok
}

// TestCreateMakesItsPathNotesDurable: a note staged on a path becomes
// durable with the registration of that path, even when the path's
// notes live on another shard than the dataset — a power cut right
// after the registration keeps both.
func TestCreateMakesItsPathNotesDurable(t *testing.T) {
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 4})
	path := pathOffShard(s, "ds-000001") // the first ID a fresh store mints
	s.AddReplica(path, "kit", testDigest(path))
	d, err := s.Create("p", path, 1, "", nil)
	if err != nil || d.ID != "ds-000001" {
		t.Fatalf("create: %v, %v", d.ID, err)
	}
	mem.Crash(nil)
	r := openMem(t, mem, Options{Shards: 4})
	defer r.Close()
	if _, ok := r.ByPath(path); !ok {
		t.Fatal("acknowledged dataset lost")
	}
	if st, _ := r.Replica(path, "kit"); st != ReplicaValid {
		t.Fatalf("the note the registration acknowledged recovered as %q, want valid", st)
	}
}

// TestStagedNoteDurableWhenWaitedFor: a staged note is on disk once
// something waits for the log past it — Sync, a later commit on
// another path, Close — and a power cut before that may lose it.
func TestStagedNoteDurableWhenWaitedFor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wait    func(s *Store, path string)
		durable bool
	}{
		{"nothing", func(*Store, string) {}, false},
		{"Sync", func(s *Store, _ string) { s.Sync() }, true},
		{"later-commit", func(s *Store, _ string) { s.Create("p", "/elsewhere", 1, "", nil) }, true},
		{"Close", func(s *Store, _ string) { s.Close() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := durafs.NewMem()
			s := openMem(t, mem, Options{Shards: 4})
			s.AddReplica("/s/x", "kit", testDigest("/s/x"))
			if st, _ := s.Replica("/s/x", "kit"); st != ReplicaValid {
				t.Fatalf("staged note reads %q in the live table, want valid", st)
			}
			tc.wait(s, "/s/x")
			mem.Crash(nil)
			r := openMem(t, mem, Options{Shards: 4})
			defer r.Close()
			if st, _ := r.Replica("/s/x", "kit"); (st == ReplicaValid) != tc.durable {
				t.Fatalf("recovered the note as %q, want durable: %v", st, tc.durable)
			}
		})
	}
}

// TestTransferNotesClearTheReplica: pending and copying describe a
// transfer, not a replica. Noted live, they move the table but journal
// only to clear a site the journal holds, and a reopen keeps none of
// them; replayed from a log that holds them — as every log written
// before they stopped being journaled does — they leave no entry either.
func TestTransferNotesClearTheReplica(t *testing.T) {
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 1})
	s.AddReplica("/t/x", "a", testDigest("/t/x"))
	s.Sync()
	base := s.WALTailRecords()
	s.SetReplica("/t/x", "b", ReplicaPending)
	s.SetReplica("/t/x", "b", ReplicaCopying)
	if st, _ := s.Replica("/t/x", "b"); st != ReplicaCopying {
		t.Fatalf("a first copy in flight reads %q in the live table, want copying", st)
	}
	if n := s.WALTailRecords() - base; n != 0 {
		t.Fatalf("a first copy in flight journaled %d records", n)
	}
	s.SetReplica("/t/x", "a", ReplicaStale)
	s.SetReplica("/t/x", "a", ReplicaPending) // cleared for a re-copy: journaled
	if n := s.WALTailRecords() - base; n != 2 {
		t.Fatalf("re-copy of a stale replica journaled %d records, want 2", n)
	}
	s.Close()
	r := openMem(t, mem, Options{Shards: 1})
	if got := r.Replicas("/t/x"); len(got) != 0 {
		t.Fatalf("transfers in flight at the close reopened as %v, want none", got)
	}
	if d, ok := r.Digest("/t/x"); !ok || !sameDigest(d, testDigest("/t/x")) {
		t.Fatalf("the row lost its digest while its copies were in flight: %+v, %v", d, ok)
	}
	r.Close()

	// A log holding every transition of four copies, as logs were
	// written when each was journaled.
	old := durafs.NewMem()
	write := func(name string, data []byte) {
		f, err := old.Create("/wal/" + name)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(data)
		f.Sync()
		f.Close()
	}
	var log []byte
	for i, n := range []struct{ site, state string }{
		{"a", "pending"}, {"a", "copying"}, {"a", "valid"}, // a finished copy
		{"b", "pending"}, {"b", "copying"}, // a copy in flight at the crash
		{"c", "pending"},                                                   // a job that never started
		{"d", "valid"}, {"d", "stale"}, {"d", "pending"}, {"d", "copying"}, // a re-copy in flight
	} {
		frame, err := encodeRecord(walRecord{LSN: uint64(i + 1), Op: opReplica, Path: "/t/x", Site: n.site, State: n.state})
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, frame...)
	}
	write("log-000000.wal", log)
	r = openMem(t, old, Options{Shards: 1})
	defer r.Close()
	if got, want := r.Replicas("/t/x"), []Replica{{"a", ReplicaValid}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed table %v, want %v", got, want)
	}
}

// TestDigestSurvivesReopen: the digest journaled with a path's first
// Valid note is what Digest returns after a reopen — by replay, from a
// snapshot, and at another shard count — and a block read against it
// verifies: every block of a three-block object passes, a flipped byte
// fails. It is journaled once per path, not once per site.
func TestDigestSurvivesReopen(t *testing.T) {
	data := make([]byte, 3*adal.ChainBlock-5)
	rand.New(rand.NewSource(7)).Read(data)
	want := digestOf(data)
	for _, route := range []string{"replay", "snapshot", "reshard"} {
		t.Run(route, func(t *testing.T) {
			mem := durafs.NewMem()
			s := openMem(t, mem, Options{Shards: 4})
			s.AddReplica("/d/obj", "kit", want)
			s.SetReplica("/d/obj", "desy", ReplicaPending)
			s.SetReplicaValid("/d/obj", "desy", want)
			s.Sync()
			if route == "snapshot" {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			shards := 4
			if route == "reshard" {
				shards = 16
			}
			r := openMem(t, mem, Options{Shards: shards})
			defer r.Close()
			got, ok := r.Digest("/d/obj")
			if !ok || !sameDigest(got, want) {
				t.Fatalf("digest after reopen = %+v, %v; want the journaled one", got, ok)
			}
			for j := int64(0); j < got.Blocks(); j++ {
				blk := data[j*adal.ChainBlock : j*adal.ChainBlock+got.BlockLen(j)]
				if !got.VerifyBlock(j, blk) {
					t.Fatalf("block %d of the intact object rejected", j)
				}
				bad := bytes.Clone(blk)
				bad[len(bad)/3] ^= 1
				if got.VerifyBlock(j, bad) {
					t.Fatalf("block %d with a flipped byte verified", j)
				}
			}
			if reps := r.Replicas("/d/obj"); len(reps) != 2 {
				t.Fatalf("replicas after reopen = %v, want kit and desy", reps)
			}
		})
	}

	// The second site's Valid note carries no digest.
	var recs []walRecord
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 1})
	s.AddReplica("/d/obj", "kit", want)
	s.SetReplica("/d/obj", "desy", ReplicaPending)
	s.SetReplicaValid("/d/obj", "desy", want)
	s.Close()
	f, err := mem.Open("/wal/log-000000.wal")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scanWAL(log, func(rec *walRecord) { recs = append(recs, *rec) }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Digest == nil || recs[1].Digest != nil {
		t.Fatalf("journaled %d records, digests on %v; want the digest on the first Valid note alone", len(recs), recs)
	}
}

// TestReplicaNotesNeedARow: a path enters the catalogue with AddReplica.
// Pending and Valid notes for a path without a row are refused, as are
// Copying, Stale and Lost for a site the row lacks, and a Valid whose
// digest is not the row's, or that carries none; none of them
// publishes. A removed row takes no notes, so a copy or a late schedule
// cannot bring the path back.
func TestReplicaNotesNeedARow(t *testing.T) {
	s := NewStore()
	var events []string
	s.Subscribe(func(ev Event) {
		if ev.Type == EventReplica {
			events = append(events, ev.Site+"="+ev.Placement)
		}
	})
	for _, st := range []ReplicaState{ReplicaPending, ReplicaCopying, ReplicaStale, ReplicaLost} {
		if s.SetReplica("/r/x", "kit", st) {
			t.Fatalf("%s note took a row for an unknown path", st)
		}
	}
	if s.SetReplicaValid("/r/x", "kit", testDigest("/r/x")) {
		t.Fatal("valid note took a row for an unknown path")
	}
	s.AddReplica("/r/x", "kit", testDigest("/r/x"))
	if s.SetReplica("/r/x", "desy", ReplicaStale) || s.SetReplicaValid("/r/x", "kit", testDigest("/r/x")) {
		t.Fatal("a mark for an absent site, or a repeated state, moved the table")
	}
	if !s.SetReplica("/r/x", "desy", ReplicaPending) {
		t.Fatal("pending refused on a known path")
	}
	if s.SetReplicaValid("/r/x", "desy", testDigest("/r/y")) || s.SetReplica("/r/x", "desy", ReplicaValid) {
		t.Fatal("a valid note checked against other bytes, or against none, moved the table")
	}
	if got := s.DropReplicas("/r/x"); len(got) != 2 {
		t.Fatalf("DropReplicas returned %v, want both sites", got)
	}
	if s.SetReplicaValid("/r/x", "desy", testDigest("/r/x")) || s.Replicas("/r/x") != nil || s.DropReplicas("/r/x") != nil {
		t.Fatal("a dropped row took a note")
	}
	want := []string{"kit=valid", "desy=pending", "desy=dropped", "kit=dropped"} // a dropped row's sites in site order
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

// TestExportImportCarriesDigests: a row's digest rides Export and
// Import — with the row's sites, and on its own for a row whose every
// copy is in flight.
func TestExportImportCarriesDigests(t *testing.T) {
	s := NewStore()
	s.AddReplica("/x/a", "kit", testDigest("/x/a"))
	s.AddReplica("/x/b", "kit", testDigest("/x/b"))
	s.SetReplica("/x/b", "kit", ReplicaPending)
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	mem := durafs.NewMem()
	r := openMem(t, mem, Options{})
	if err := r.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r = openMem(t, mem, Options{})
	defer r.Close()
	for _, p := range []string{"/x/a", "/x/b"} {
		if d, ok := r.Digest(p); !ok || !sameDigest(d, testDigest(p)) {
			t.Fatalf("%s imported with digest %+v, %v", p, d, ok)
		}
	}
	if got := r.Replicas("/x/a"); !reflect.DeepEqual(got, []Replica{{"kit", ReplicaValid}}) {
		t.Fatalf("/x/a imported as %v", got)
	}
	if got := r.Replicas("/x/b"); len(got) != 0 {
		t.Fatalf("a copy in flight was exported: %v", got)
	}
}
