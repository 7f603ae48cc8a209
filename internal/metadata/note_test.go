package metadata

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/metadata/durafs"
)

// pathOffLog returns a path whose notes live in another log than the
// dataset with the given ID.
func pathOffLog(s *Store, id string) string {
	for i := 0; ; i++ {
		if p := fmt.Sprintf("/n/%d", i); fnv32a(p)&s.mask != fnv32a(id)&s.mask {
			return p
		}
	}
}

// TestCreateMakesItsPathNotesDurable: a note staged on a path becomes
// durable with the registration of that path, even when the path's log
// is not the one the dataset is journaled in — a power cut right after
// the registration keeps both.
func TestCreateMakesItsPathNotesDurable(t *testing.T) {
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 4})
	path := pathOffLog(s, "ds-000001") // the first ID a fresh store mints
	s.StageReplica(path, "kit", "valid")
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
	if st := r.Replicas(path)["kit"]; st != "valid" {
		t.Fatalf("the note the registration acknowledged recovered as %q, want valid", st)
	}
}

// TestStagedNoteDurableWhenWaitedFor: a staged note is on disk once
// something waits for its log — SyncPaths on its path, SyncPaths on
// every log, Close — and a power cut before that may lose it.
func TestStagedNoteDurableWhenWaitedFor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wait    func(s *Store, path string)
		durable bool
	}{
		{"nothing", func(*Store, string) {}, false},
		{"SyncPaths(path)", func(s *Store, path string) { s.SyncPaths(path) }, true},
		{"SyncPaths()", func(s *Store, _ string) { s.SyncPaths() }, true},
		{"Close", func(s *Store, _ string) { s.Close() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := durafs.NewMem()
			s := openMem(t, mem, Options{Shards: 4})
			s.StageReplica("/s/x", "kit", "valid")
			if st := s.Replicas("/s/x")["kit"]; st != "valid" {
				t.Fatalf("staged note reads %q in the live table, want valid", st)
			}
			tc.wait(s, "/s/x")
			mem.Crash(nil)
			r := openMem(t, mem, Options{Shards: 4})
			defer r.Close()
			if got := r.Replicas("/s/x")["kit"] == "valid"; got != tc.durable {
				t.Fatalf("recovered the note: %v, want %v", got, tc.durable)
			}
		})
	}
}

// TestTransferNotesClearTheReplica: pending and copying describe a
// transfer, not a replica. Noted live, they clear the site's entry and
// journal only when there was one; replayed from a log that holds them
// — as every log written before they stopped being journaled does —
// they leave no entry either.
func TestTransferNotesClearTheReplica(t *testing.T) {
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 1})
	s.NoteReplica("/t/x", "a", "pending")
	s.NoteReplica("/t/x", "a", "copying")
	if reps := s.Replicas("/t/x"); reps != nil {
		t.Fatalf("a first copy in flight left %v in the table", reps)
	}
	if n := s.WALTailRecords(); n != 0 {
		t.Fatalf("a first copy in flight journaled %d records", n)
	}
	s.NoteReplica("/t/x", "a", "stale")
	s.NoteReplica("/t/x", "a", "pending") // cleared for a re-copy: journaled
	if reps, n := s.Replicas("/t/x"), s.WALTailRecords(); reps != nil || n != 2 {
		t.Fatalf("re-copy of a stale replica: table %v, %d records journaled, want none and 2", reps, n)
	}
	s.Close()

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
	manifest, _ := json.Marshal(walManifest{Version: 1, Shards: 1})
	write("MANIFEST", appendFrame(nil, manifest))
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
	write("shard-000.wal", log)
	r := openMem(t, old, Options{Shards: 1})
	defer r.Close()
	if got, want := r.Replicas("/t/x"), map[string]string{"a": "valid"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed table %v, want %v", got, want)
	}
}
