package hsm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/units"
)

func newManager(t *testing.T, diskCap units.Bytes, pol Policy) (*sim.Engine, *storage.Array, *tape.Library, *Manager) {
	t.Helper()
	eng := sim.New(1)
	disk := storage.NewArray(eng, "disk", diskCap, units.Rate(5*units.GB))
	if _, err := disk.CreateVolume("data", 0); err != nil {
		t.Fatal(err)
	}
	lib := tape.New(eng, tape.DefaultConfig())
	m, err := New(eng, disk, "data", lib, pol)
	if err != nil {
		t.Fatal(err)
	}
	return eng, disk, lib, m
}

func quickPolicy() Policy {
	p := DefaultPolicy()
	p.MinAge = 0
	p.ScanInterval = time.Hour
	return p
}

func TestStoreAndLookup(t *testing.T) {
	_, disk, _, m := newManager(t, 100*units.GB, quickPolicy())
	if err := m.Store("f1", 10*units.GB); err != nil {
		t.Fatal(err)
	}
	f, ok := m.Lookup("f1")
	if !ok || f.State != Resident || f.Size != 10*units.GB {
		t.Fatalf("lookup = %+v, %v", f, ok)
	}
	if disk.Used() != 10*units.GB {
		t.Fatalf("disk used = %v", disk.Used())
	}
	if err := m.Store("f1", units.GB); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate store err = %v", err)
	}
}

func TestMigrationOnWatermark(t *testing.T) {
	eng, disk, lib, m := newManager(t, 100*units.GB, quickPolicy())
	// Fill to 90% (> high watermark 85%).
	for i := 0; i < 9; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(2 * time.Hour) // one scheduled scan + tape writes
	st := m.Stats()
	if st.MigratedFiles == 0 {
		t.Fatal("no files migrated despite exceeding watermark")
	}
	if disk.Utilization() > 0.71 {
		t.Fatalf("utilization after migration = %f, want <= low watermark", disk.Utilization())
	}
	if lib.Stats().BytesIn != st.MigratedBytes {
		t.Fatalf("tape holds %v, manager says %v", lib.Stats().BytesIn, st.MigratedBytes)
	}
	// Oldest files must be the migrated ones (f0 migrated first).
	f0, _ := m.Lookup(fileName(0))
	if f0.State != Migrated {
		t.Fatalf("f0 state = %v, want migrated", f0.State)
	}
}

func fileName(i int) string {
	return "file-" + string(rune('a'+i))
}

func TestNoMigrationBelowWatermark(t *testing.T) {
	eng, _, _, m := newManager(t, 100*units.GB, quickPolicy())
	if err := m.Store("f", 50*units.GB); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * time.Hour)
	if st := m.Stats(); st.MigratedFiles != 0 {
		t.Fatalf("migrated %d files below watermark", st.MigratedFiles)
	}
}

func TestMinAgeRespected(t *testing.T) {
	pol := quickPolicy()
	pol.MinAge = 24 * time.Hour
	eng, _, _, m := newManager(t, 100*units.GB, pol)
	for i := 0; i < 9; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(2 * time.Hour)
	if st := m.Stats(); st.MigratedFiles != 0 {
		t.Fatalf("migrated %d files younger than MinAge", st.MigratedFiles)
	}
	// After MinAge passes, migration proceeds.
	eng.RunUntil(30 * time.Hour)
	if st := m.Stats(); st.MigratedFiles == 0 {
		t.Fatal("no migration after files aged past MinAge")
	}
}

func TestRecallOnAccess(t *testing.T) {
	eng, _, _, m := newManager(t, 100*units.GB, quickPolicy())
	for i := 0; i < 9; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(5 * time.Hour)
	f0, _ := m.Lookup(fileName(0))
	if f0.State != Migrated {
		t.Skip("migration did not pick f0; policy changed")
	}
	var accessErr error
	recalled := false
	start := eng.Now()
	m.Access(fileName(0), func(err error) {
		accessErr = err
		recalled = true
	})
	eng.Run()
	if !recalled || accessErr != nil {
		t.Fatalf("recall: done=%v err=%v", recalled, accessErr)
	}
	f0, _ = m.Lookup(fileName(0))
	if f0.State != Premigrated {
		t.Fatalf("state after recall = %v", f0.State)
	}
	st := m.Stats()
	if st.Recalls != 1 || st.RecalledBytes != 10*units.GB {
		t.Fatalf("stats = %+v", st)
	}
	if eng.Now() == start {
		t.Fatal("recall must take virtual time (tape mechanics)")
	}
}

func TestConcurrentRecallCoalesces(t *testing.T) {
	eng, _, _, m := newManager(t, 100*units.GB, quickPolicy())
	for i := 0; i < 9; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(5 * time.Hour)
	f0, _ := m.Lookup(fileName(0))
	if f0.State != Migrated {
		t.Skip("f0 not migrated")
	}
	doneCount := 0
	for i := 0; i < 3; i++ {
		m.Access(fileName(0), func(err error) {
			if err != nil {
				t.Errorf("access: %v", err)
			}
			doneCount++
		})
	}
	eng.Run()
	if doneCount != 3 {
		t.Fatalf("done callbacks = %d, want 3", doneCount)
	}
	if st := m.Stats(); st.Recalls != 1 {
		t.Fatalf("recalls = %d, want 1 (coalesced)", st.Recalls)
	}
}

func TestAccessResidentImmediate(t *testing.T) {
	eng, _, _, m := newManager(t, 100*units.GB, quickPolicy())
	if err := m.Store("f", units.GB); err != nil {
		t.Fatal(err)
	}
	var err error
	called := false
	m.Access("f", func(e error) { called = true; err = e })
	eng.Run()
	if !called || err != nil {
		t.Fatalf("resident access: called=%v err=%v", called, err)
	}
}

func TestAccessUnknown(t *testing.T) {
	eng, _, _, m := newManager(t, 100*units.GB, quickPolicy())
	var got error
	m.Access("nope", func(e error) { got = e })
	eng.Run()
	if !errors.Is(got, ErrUnknownFile) {
		t.Fatalf("err = %v", got)
	}
}

func TestDelete(t *testing.T) {
	_, disk, _, m := newManager(t, 100*units.GB, quickPolicy())
	if err := m.Store("f", 10*units.GB); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("f"); err != nil {
		t.Fatal(err)
	}
	if disk.Used() != 0 {
		t.Fatalf("disk used after delete = %v", disk.Used())
	}
	if err := m.Delete("f"); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestEmergencyScanOnFullStore(t *testing.T) {
	pol := quickPolicy()
	pol.ScanInterval = 0 // no periodic scan; only the emergency path
	eng, _, _, m := newManager(t, 100*units.GB, pol)
	for i := 0; i < 10; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	// Disk is 100% full. Another store triggers the emergency scan,
	// but space frees only after tape writes complete, so this store
	// still fails...
	err := m.Store("late", 10*units.GB)
	if err == nil {
		t.Fatal("store into full disk should fail until migration completes")
	}
	// ...and once the migration drains, a retry succeeds.
	eng.Run()
	if err := m.Store("late", 10*units.GB); err != nil {
		t.Fatalf("store after migration: %v", err)
	}
}

func TestCartridgeRotation(t *testing.T) {
	pol := quickPolicy()
	pol.CartridgeSize = 15 * units.GB // forces a new cartridge every 1-2 files
	eng, _, lib, m := newManager(t, 100*units.GB, pol)
	for i := 0; i < 9; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(5 * time.Hour)
	if st := m.Stats(); st.MigratedFiles < 2 {
		t.Fatalf("migrated = %d, want >= 2", st.MigratedFiles)
	}
	if got := len(lib.Cartridges()); got < 2 {
		t.Fatalf("cartridges = %d, want >= 2 (rotation)", got)
	}
}

// TestOverlappingScansStopAtTheLowWatermark: a second pass while the
// first pass's tape writes are still in flight counts their bytes as
// freed and plans nothing more.
func TestOverlappingScansStopAtTheLowWatermark(t *testing.T) {
	pol := quickPolicy()
	pol.ScanInterval = 0
	eng, disk, _, m := newManager(t, 100*units.GB, pol)
	for i := 0; i < 9; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	m.Scan()
	m.Scan()
	eng.Run()
	if st := m.Stats(); st.MigratedFiles != 2 || disk.Used() != 70*units.GB {
		t.Fatalf("migrated %d files, %v left on disk; want 2 and 70 GB", st.MigratedFiles, disk.Used())
	}
}

// TestRecalledFileMigratesWithoutATapeWrite: a recalled file is
// premigrated; when it is the oldest again, migrating it frees its disk
// copy and writes nothing to tape.
func TestRecalledFileMigratesWithoutATapeWrite(t *testing.T) {
	pol := quickPolicy()
	pol.ScanInterval = 0
	eng, disk, lib, m := newManager(t, 100*units.GB, pol)
	if err := m.Store("big", 20*units.GB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := m.Store(fileName(i), 10*units.GB); err != nil {
			t.Fatal(err)
		}
	}
	m.Scan() // 90 %: "big" alone brings the disk to 70 %
	eng.Run()
	m.Access("big", func(err error) {
		if err != nil {
			t.Errorf("recall: %v", err)
		}
	})
	eng.Run()
	if f, _ := m.Lookup("big"); f.State != Premigrated {
		t.Fatalf("after recall: %v", f.State)
	}
	eng.RunUntil(eng.Now() + time.Minute)
	for i := 0; i < 7; i++ {
		m.Access(fileName(i), func(error) {})
	}
	eng.Run()
	before, cart := lib.Stats().BytesIn, mustLookup(t, m, "big").Cartridge

	m.Scan() // 90 % again, and "big" is the oldest access
	f := mustLookup(t, m, "big")
	if f.State != Migrated || f.Cartridge != cart || disk.Used() != 70*units.GB {
		t.Fatalf("after the second scan: %+v, disk %v", f, disk.Used())
	}
	eng.Run()
	if after := lib.Stats().BytesIn; after != before {
		t.Fatalf("migrating a premigrated file wrote %v to tape", after-before)
	}
}

func mustLookup(t *testing.T, m *Manager, name string) File {
	t.Helper()
	f, ok := m.Lookup(name)
	if !ok {
		t.Fatalf("%s not managed", name)
	}
	return f
}
