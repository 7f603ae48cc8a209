package metadata

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/metadata/durafs"
)

// TestPlacementJournalsItsDigestOnce: a row's digest is journaled with
// the row's creation; the records that move its state or pin carry none,
// and replay them onto the digest the row holds — chain included.
func TestPlacementJournalsItsDigestOnce(t *testing.T) {
	mem := durafs.NewMem()
	s := openMem(t, mem, Options{Shards: 1})
	want := testDigest("/t/x")
	mod := time.Date(2011, 5, 16, 9, 0, 0, 0, time.UTC)
	for _, p := range []Placement{
		{State: TierResident, Digest: want, ModTime: mod},
		{State: TierPremigrated, Digest: want, ModTime: mod},
		{State: TierPremigrated, Digest: want, ModTime: mod, Pinned: true},
	} {
		if err := s.Place("/t/x", &p); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	f, err := mem.Open("/wal/log-000000.wal")
	if err != nil {
		t.Fatal(err)
	}
	log, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var sums []string
	if _, err := scanWAL(log, func(rec *walRecord) { sums = append(sums, rec.Placement.Digest.Sum) }); err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 || sums[0] != want.Sum || sums[1] != "" || sums[2] != "" {
		t.Fatalf("journaled digests %q; want the first record's alone", sums)
	}
	r := openMem(t, mem, Options{Shards: 4})
	defer r.Close()
	got, ok := r.Placements("/t")["/x"]
	if !ok || got.State != TierPremigrated || !got.Pinned || !got.ModTime.Equal(mod) || !sameDigest(got.Digest, want) {
		t.Fatalf("replayed row %+v, %v", got, ok)
	}
}

// TestPlaceEvents: a row publishes EventPlacement when it is new or its
// state moves; a pin and a drop publish nothing.
func TestPlaceEvents(t *testing.T) {
	s := NewStore()
	var seen []string
	s.Subscribe(func(ev Event) {
		if ev.Type == EventPlacement {
			seen = append(seen, ev.Dataset.Path+":"+ev.Placement)
		}
	})
	d := testDigest("/e")
	for _, p := range []*Placement{
		{State: TierResident, Digest: d},
		{State: TierResident, Digest: d, Pinned: true},
		{State: TierMigrated, Digest: d, Pinned: true},
		nil,
		{State: TierResident, Digest: d},
	} {
		if err := s.Place("/e", p); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"/e:resident", "/e:migrated", "/e:resident"}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("events %v, want %v", seen, want)
	}
}

// TestEarlierPlacementNotesAreIgnored: an earlier build journaled an
// untyped word per path and snapshotted the words under "placements".
// Neither is a row: a log and a snapshot holding them open, with no row.
func TestEarlierPlacementNotesAreIgnored(t *testing.T) {
	mem := durafs.NewMem()
	doc := []byte(`{"seq":1,"last_lsn":1,"datasets":[],"placements":{"/ddn/a":"migrated"}}`)
	snap := binary.LittleEndian.AppendUint32(doc, crc32.Checksum(doc, castagnoli))
	if err := writeMemFile(mem, "/wal/"+snapName, snap); err != nil {
		t.Fatal(err)
	}
	rec, err := encodeRecord(walRecord{LSN: 2, Op: opPlacement, Path: "/ddn/b", State: "premigrated"})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMemFile(mem, "/wal/"+segName(0), rec); err != nil {
		t.Fatal(err)
	}
	s := openMem(t, mem, Options{})
	defer s.Close()
	if rows := s.Placements(""); len(rows) != 0 {
		t.Fatalf("the earlier notes recovered as rows: %v", rows)
	}
	if st := s.RecoveryStats(); st.SnapshotsLoaded != 1 || st.RecordsReplayed != 1 {
		t.Fatalf("recovery: %+v", st)
	}
}

func writeMemFile(mem *durafs.MemFS, name string, data []byte) error {
	f, err := mem.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}
