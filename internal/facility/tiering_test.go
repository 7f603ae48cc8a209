package facility

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ingest"
	"repro/internal/metadata"
	"repro/internal/tiering"
	"repro/internal/units"
)

func newTieredFacility(t *testing.T, hotCap units.Bytes, pol tiering.Policy) *Facility {
	t.Helper()
	f, err := New(Options{
		TierHotCapacity:      hotCap,
		TierPolicy:           pol,
		TierMigrationWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// TestTieredMountTransparentRecall is the acceptance path: an object
// written through the ordinary ADAL mount table migrates to tape and
// reads back byte-identically through the same federated path, with
// zero caller changes.
func TestTieredMountTransparentRecall(t *testing.T) {
	f := newTieredFacility(t, 10*units.MiB, tiering.Policy{})
	data := bytes.Repeat([]byte("katrin-spectrum "), 4096) // 64 KiB

	n, sum, err := f.Layer.WriteChecksummed("/ddn/katrin/run1.raw", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n != units.Bytes(len(data)) {
		t.Fatalf("wrote %d", n)
	}
	if err := f.Tier.Migrate("/katrin/run1.raw"); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.Tier.State("/katrin/run1.raw"); st != tiering.Migrated {
		t.Fatalf("state = %v", st)
	}
	// The cold bytes physically live in the tape store.
	if info, err := f.Tape.Stat("/katrin/run1.raw"); err != nil || info.Size != units.Bytes(len(data)) {
		t.Fatalf("tape copy = %+v, %v", info, err)
	}
	// A plain Layer.Open — the call every existing client makes —
	// recalls transparently and byte-identically.
	r, err := f.Layer.Open("/ddn/katrin/run1.raw")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("recalled read differs (err=%v)", err)
	}
	// And the checksum primitive agrees with what ingest recorded.
	after, err := f.Layer.Checksum("/ddn/katrin/run1.raw")
	if err != nil || after != sum {
		t.Fatalf("checksum after recall = %s, want %s (err=%v)", after, sum, err)
	}
}

// TestTieredIngestWatermarkStress overfills the hot tier through the
// real ingest pipeline and checks that background migration holds
// utilization at the watermark while every object stays readable and
// registered.
func TestTieredIngestWatermarkStress(t *testing.T) {
	pol := tiering.Policy{HighWatermark: 0.80, LowWatermark: 0.50}
	f := newTieredFacility(t, 512*units.KiB, pol)

	const n, objSize = 120, 16 * 1024 // 1.9 MB offered vs 512 KiB hot
	objs := make([]*ingest.Object, n)
	for i := range objs {
		objs[i] = &ingest.Object{
			Project: "itg",
			Path:    fmt.Sprintf("/ddn/itg/img%04d.raw", i),
			Data:    strings.NewReader(strings.Repeat(string(rune('a'+i%26)), objSize)),
		}
	}
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 4, BatchSize: 8})
	stats, err := pipe.Run(context.Background(), &ingest.SliceProducer{Objects: objs})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Objects != n {
		t.Fatalf("ingested %d/%d", stats.Objects, n)
	}
	// Settle and assert the watermark held.
	for i := 0; i < 10; i++ {
		f.Tier.Scan()
		f.Tier.Wait()
		if f.Tier.Utilization() <= pol.HighWatermark {
			break
		}
	}
	ts := f.Tier.Stats()
	if ts.HotUtilization > pol.HighWatermark {
		t.Fatalf("hot utilization %.2f > high watermark %.2f", ts.HotUtilization, pol.HighWatermark)
	}
	if ts.Migrated == 0 || ts.Migrations == 0 {
		t.Fatalf("nothing migrated under pressure: %+v", ts)
	}
	// Every ingested object reads back intact through the mount table.
	for i := range objs {
		path := fmt.Sprintf("/ddn/itg/img%04d.raw", i)
		r, err := f.Layer.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || len(got) != objSize || got[0] != byte('a'+i%26) {
			t.Fatalf("%s corrupted after tiering (err=%v, len=%d)", path, err, len(got))
		}
	}
}

// TestTieredConcurrentRecallDedup asserts the singleflight invariant
// through the facility: many concurrent readers of one migrated path
// cost exactly one tape recall.
func TestTieredConcurrentRecallDedup(t *testing.T) {
	f := newTieredFacility(t, 10*units.MiB, tiering.Policy{})
	data := bytes.Repeat([]byte{0xD2}, 128*1024)
	if _, _, err := f.Layer.WriteChecksummed("/ddn/d/x", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := f.Tier.Migrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	const readers = 24
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := f.Layer.Open("/ddn/d/x")
			if err != nil {
				bad.Add(1)
				return
			}
			got, err := io.ReadAll(r)
			r.Close()
			if err != nil || !bytes.Equal(got, data) {
				bad.Add(1)
			}
		}()
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d readers failed", bad.Load())
	}
	ts := f.Tier.Stats()
	if ts.Recalls != 1 {
		t.Fatalf("recalls = %d, want 1 (deduplicated)", ts.Recalls)
	}
	if ts.RecallBytes != units.Bytes(len(data)) {
		t.Fatalf("recall bytes = %d", ts.RecallBytes)
	}
}

// TestTieredPremigrateOnIngest runs the pipeline in
// premigrate-on-ingest mode: every object ends Premigrated (bytes on
// both tiers) so watermark migration degrades to stub swaps.
func TestTieredPremigrateOnIngest(t *testing.T) {
	f := newTieredFacility(t, 10*units.MiB, tiering.Policy{})
	const n = 20
	objs := make([]*ingest.Object, n)
	for i := range objs {
		objs[i] = &ingest.Object{
			Project: "itg",
			Path:    fmt.Sprintf("/ddn/pm/%02d", i),
			Data:    strings.NewReader(strings.Repeat("z", 4096)),
		}
	}
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 4, Premigrate: true})
	if _, err := pipe.Run(context.Background(), &ingest.SliceProducer{Objects: objs}); err != nil {
		t.Fatal(err)
	}
	ts := f.Tier.Stats()
	if ts.Premigrated != n || ts.Premigrations != uint64(n) {
		t.Fatalf("stats = %+v, want %d premigrated", ts, n)
	}
	if infos, err := f.Tape.List("/"); err != nil || len(infos) != n {
		t.Fatalf("tape objects = %d, %v", len(infos), err)
	}
	// Migration of a premigrated object copies nothing more to tape.
	before, err := f.Tape.Stat("/pm/00")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Tier.Migrate("/pm/00"); err != nil {
		t.Fatal(err)
	}
	if st := f.Tier.Stats(); st.Premigrations != uint64(n) || st.Migrations != 1 {
		t.Fatalf("after migrating a premigrated object: %+v", st)
	}
	if after, err := f.Tape.Stat("/pm/00"); err != nil || !after.ModTime.Equal(before.ModTime) {
		t.Fatalf("tape copy rewritten: %v -> %+v, %v", before.ModTime, after, err)
	}
}

// TestTieredPlacementEventsReachSubscribers checks the PR 1 bus
// carries tier transitions with the federated path, joined to the
// registered dataset.
func TestTieredPlacementEventsReachSubscribers(t *testing.T) {
	f := newTieredFacility(t, 10*units.MiB, tiering.Policy{})
	var mu sync.Mutex
	events := make(map[string]int)
	f.Meta.Subscribe(func(ev metadata.Event) {
		if ev.Type != metadata.EventPlacement {
			return
		}
		mu.Lock()
		events[ev.Placement]++
		if ev.Dataset.Path != "/ddn/ev/x" {
			t.Errorf("event path = %q", ev.Dataset.Path)
		}
		mu.Unlock()
	})
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 1})
	_, err := pipe.Run(context.Background(), &ingest.SliceProducer{Objects: []*ingest.Object{{
		Project: "itg", Path: "/ddn/ev/x", Data: strings.NewReader("payload"),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Tier.Migrate("/ev/x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Tier.Recall("/ev/x"); err != nil {
		t.Fatal(err)
	}
	f.Meta.Flush()
	mu.Lock()
	defer mu.Unlock()
	if events["resident"] != 1 || events["migrated"] != 1 || events["premigrated"] != 2 {
		t.Fatalf("placement events = %v", events)
	}
}

// TestDurableMetadataWithTierIsRefused: the journal would recover the
// tier's placement rows over empty in-memory hot and cold stores, so a
// reopened facility would list objects it cannot open.
func TestDurableMetadataWithTierIsRefused(t *testing.T) {
	f, err := New(Options{WALDir: t.TempDir(), TierHotCapacity: units.MiB})
	if err == nil {
		f.Close()
		t.Fatal("New accepted WALDir with TierHotCapacity")
	}
	for _, opt := range []string{"WALDir", "TierHotCapacity"} {
		if !strings.Contains(err.Error(), opt) {
			t.Errorf("error %q does not name %s", err, opt)
		}
	}
}
