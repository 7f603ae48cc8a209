package tiering

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

// fakeClock is a manually advanced timestamp source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2011, 5, 16, 9, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTier(t *testing.T, cfg Config) (*TierBackend, *adal.MemFS, *adal.MemFS) {
	t.Helper()
	hot := adal.NewMemFS("hot")
	cold := adal.NewMemFS("cold")
	tier, err := New("tier", hot, cold, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	return tier, hot, cold
}

func writeObj(t *testing.T, b adal.Backend, path string, data []byte) {
	t.Helper()
	w, err := b.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readObj(t *testing.T, b adal.Backend, path string) []byte {
	t.Helper()
	r, err := b.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func payload(seed byte, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed + byte(i%13)
	}
	return data
}

func TestCreateOpenStatList(t *testing.T) {
	tier, _, _ := newTier(t, Config{})
	data := payload('a', 4096)
	writeObj(t, tier, "/exp/run1", data)

	if got := readObj(t, tier, "/exp/run1"); !bytes.Equal(got, data) {
		t.Fatal("read-back differs")
	}
	info, err := tier.Stat("/exp/run1")
	if err != nil || info.Size != units.Bytes(len(data)) {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if info.ModTime.IsZero() {
		t.Fatal("stat dropped mod time")
	}
	infos, err := tier.List("/exp")
	if err != nil || len(infos) != 1 || infos[0].Path != "/exp/run1" {
		t.Fatalf("list = %+v, %v", infos, err)
	}
	if _, err := tier.Create("/exp/run1"); !errors.Is(err, adal.ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
	if _, err := tier.Open("/missing"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("missing open err = %v", err)
	}
}

func TestMigrateAndTransparentRecall(t *testing.T) {
	tier, hot, cold := newTier(t, Config{})
	data := payload('m', 64*1024)
	writeObj(t, tier, "/exp/big", data)

	if err := tier.Migrate("/exp/big"); err != nil {
		t.Fatal(err)
	}
	if st, _ := tier.State("/exp/big"); st != Migrated {
		t.Fatalf("state = %v, want migrated", st)
	}
	// The hot tier now holds only a small stub; the cold tier the bytes.
	stubInfo, err := hot.Stat("/exp/big")
	if err != nil {
		t.Fatal(err)
	}
	if stubInfo.Size >= units.Bytes(len(data)) || stubInfo.Size > maxStubSize {
		t.Fatalf("stub size = %d", stubInfo.Size)
	}
	if got := readObj(t, cold, "/exp/big"); !bytes.Equal(got, data) {
		t.Fatal("cold copy differs")
	}
	// Stat still reports the logical size — placement is transparent.
	info, err := tier.Stat("/exp/big")
	if err != nil || info.Size != units.Bytes(len(data)) {
		t.Fatalf("stat = %+v, %v", info, err)
	}

	// Open recalls transparently and byte-identically.
	if got := readObj(t, tier, "/exp/big"); !bytes.Equal(got, data) {
		t.Fatal("recalled content differs")
	}
	if st, _ := tier.State("/exp/big"); st != Premigrated {
		t.Fatalf("state after recall = %v, want premigrated", st)
	}
	st := tier.Stats()
	if st.Recalls != 1 || st.Migrations != 1 || st.Premigrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RecallBytes != units.Bytes(len(data)) {
		t.Fatalf("recall bytes = %d", st.RecallBytes)
	}
	if st.RecallWaitNs <= 0 {
		t.Fatal("no recall wait recorded")
	}
}

func TestConcurrentRecallSingleflight(t *testing.T) {
	tier, _, _ := newTier(t, Config{})
	data := payload('s', 256*1024)
	writeObj(t, tier, "/exp/shared", data)
	if err := tier.Migrate("/exp/shared"); err != nil {
		t.Fatal(err)
	}

	const readers = 32
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := tier.Open("/exp/shared")
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
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d readers failed", n)
	}
	if st := tier.Stats(); st.Recalls != 1 {
		t.Fatalf("recalls = %d, want 1 (singleflight)", st.Recalls)
	}
}

func TestWatermarkMigrationOldestFirst(t *testing.T) {
	clock := newFakeClock()
	// Only the tenth write crosses the high watermark, so the pass it
	// wakes and the explicit Scan below plan from the same 100% — a mark
	// the ninth write crossed would let its pass finish first and
	// leave the tier, correctly, at 70% between the marks.
	pol := Policy{HighWatermark: 0.95, LowWatermark: 0.60, MinAge: 0}
	tier, _, _ := newTier(t, Config{
		Policy: pol, HotCapacity: 100 * units.KiB, Clock: clock.Now,
	})

	// Ten 10 KiB files with strictly increasing access times: 100%.
	for i := 0; i < 10; i++ {
		writeObj(t, tier, fmt.Sprintf("/d/f%d", i), payload(byte(i), 10*1024))
		clock.Advance(time.Minute)
	}
	tier.Scan()
	tier.Wait()

	st := tier.Stats()
	if st.HotUtilization > pol.HighWatermark {
		t.Fatalf("utilization = %.2f, want <= %.2f", st.HotUtilization, pol.HighWatermark)
	}
	if st.HotUtilization > pol.LowWatermark+0.001 {
		t.Fatalf("utilization = %.2f, want <= low watermark %.2f", st.HotUtilization, pol.LowWatermark)
	}
	// The write-triggered pass and the explicit one overlap; files one
	// of them has queued count as freed for the other, so together
	// they move exactly the four files that reach the low watermark.
	if st.Migrations != 4 {
		t.Fatalf("migrations = %d, want 4", st.Migrations)
	}
	// Oldest files migrated first: f0..f3 gone cold, newest still hot.
	if s, _ := tier.State("/d/f0"); s != Migrated {
		t.Fatalf("f0 = %v, want migrated", s)
	}
	if s, _ := tier.State("/d/f9"); s != Resident {
		t.Fatalf("f9 = %v, want resident", s)
	}
	// Between the marks nothing moves (hysteresis).
	before := tier.Stats().Migrations
	tier.Scan()
	tier.Wait()
	if after := tier.Stats().Migrations; after != before {
		t.Fatalf("scan between watermarks migrated %d files", after-before)
	}
}

func TestPinExemptsFromMigration(t *testing.T) {
	clock := newFakeClock()
	tier, _, _ := newTier(t, Config{
		Policy:      Policy{HighWatermark: 0.5, LowWatermark: 0.1, MinAge: 0},
		HotCapacity: 30 * units.KiB,
		Clock:       clock.Now,
	})
	writeObj(t, tier, "/d/pinned", payload('p', 10*1024))
	if err := tier.Pin("/d/pinned"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	writeObj(t, tier, "/d/young", payload('y', 10*1024))
	writeObj(t, tier, "/d/younger", payload('z', 10*1024))
	tier.Scan()
	tier.Wait()
	if s, _ := tier.State("/d/pinned"); s != Resident {
		t.Fatalf("pinned file state = %v, want resident", s)
	}
	if s, _ := tier.State("/d/young"); s == Resident {
		t.Fatal("unpinned older file was not migrated")
	}
	if err := tier.Migrate("/d/pinned"); !errors.Is(err, ErrPinned) {
		t.Fatalf("forced migrate of pinned file err = %v", err)
	}
}

func TestPremigrateThenCheapMigrate(t *testing.T) {
	tier, hot, cold := newTier(t, Config{})
	data := payload('w', 32*1024)
	writeObj(t, tier, "/d/x", data)
	if err := tier.Premigrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	if s, _ := tier.State("/d/x"); s != Premigrated {
		t.Fatalf("state = %v, want premigrated", s)
	}
	// Both tiers hold the bytes.
	if got := readObj(t, hot, "/d/x"); !bytes.Equal(got, data) {
		t.Fatal("hot copy differs")
	}
	if got := readObj(t, cold, "/d/x"); !bytes.Equal(got, data) {
		t.Fatal("cold copy differs")
	}
	// Premigrate is idempotent.
	if err := tier.Premigrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	if st := tier.Stats(); st.Premigrations != 1 {
		t.Fatalf("premigrations = %d, want 1", st.Premigrations)
	}
	// The final migration is a stub swap, no second cold copy.
	if err := tier.Migrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	st := tier.Stats()
	if st.Premigrations != 1 || st.Migrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := readObj(t, tier, "/d/x"); !bytes.Equal(got, data) {
		t.Fatal("content differs after premigrate+migrate+recall")
	}
}

func TestRecoveryFromStubs(t *testing.T) {
	hot := adal.NewMemFS("hot")
	cold := adal.NewMemFS("cold")
	tier, err := New("tier", hot, cold, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dataA := payload('A', 20*1024)
	dataB := payload('B', 8*1024)
	writeObj(t, tier, "/d/archived", dataA)
	writeObj(t, tier, "/d/live", dataB)
	if err := tier.Migrate("/d/archived"); err != nil {
		t.Fatal(err)
	}
	wantMod, _ := tier.Stat("/d/archived")
	tier.Close()

	// A fresh TierBackend over the same tiers recovers placement from
	// the stubs alone.
	tier2, err := New("tier2", hot, cold, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier2.Close()
	if s, ok := tier2.State("/d/archived"); !ok || s != Migrated {
		t.Fatalf("recovered state = %v, %v", s, ok)
	}
	if s, ok := tier2.State("/d/live"); !ok || s != Resident {
		t.Fatalf("recovered state = %v, %v", s, ok)
	}
	info, err := tier2.Stat("/d/archived")
	if err != nil || info.Size != units.Bytes(len(dataA)) {
		t.Fatalf("recovered stat = %+v, %v", info, err)
	}
	if !info.ModTime.Equal(wantMod.ModTime) {
		t.Fatalf("recovered modtime = %v, want %v", info.ModTime, wantMod.ModTime)
	}
	if got := readObj(t, tier2, "/d/archived"); !bytes.Equal(got, dataA) {
		t.Fatal("recalled content differs after recovery")
	}
}

func TestRecallChecksumMismatch(t *testing.T) {
	tier, _, cold := newTier(t, Config{})
	writeObj(t, tier, "/d/x", payload('x', 4096))
	if err := tier.Migrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the cold copy.
	if err := cold.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	writeObj(t, cold, "/d/x", payload('y', 4096))
	if _, err := tier.Open("/d/x"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("open err = %v, want checksum mismatch", err)
	}
	if st := tier.Stats(); st.RecallErrors != 1 || st.Recalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecallMidObjectMismatchRestoresStub: a cold copy corrupted in a
// middle block fails the recall with ErrChecksum, the half-recalled hot
// object is gone and the stub is back in its place — so the file is
// still Migrated, for this tier and for one recovering from the hot
// namespace — and once the cold copy is repaired the same stub recalls
// the right bytes.
func TestRecallMidObjectMismatchRestoresStub(t *testing.T) {
	tier, hot, cold := newTier(t, Config{})
	data := payload('m', 3*adal.ChainBlock+99)
	writeObj(t, tier, "/d/m", data)
	if err := tier.Migrate("/d/m"); err != nil {
		t.Fatal(err)
	}
	setCold := func(content []byte) {
		t.Helper()
		if err := cold.Remove("/d/m"); err != nil {
			t.Fatal(err)
		}
		writeObj(t, cold, "/d/m", content)
	}
	bad := bytes.Clone(data)
	bad[adal.ChainBlock+adal.ChainBlock/2] ^= 1
	setCold(bad)
	if _, err := tier.Open("/d/m"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("open err = %v, want checksum mismatch", err)
	}
	stub, ok := decodeStub(readObj(t, hot, "/d/m"))
	if !ok || stub.size != units.Bytes(len(data)) {
		t.Fatalf("hot object after the failed recall: stub %v, %+v", ok, stub)
	}
	if st, _ := tier.State("/d/m"); st != Migrated {
		t.Fatalf("state after the failed recall = %v, want migrated", st)
	}
	again, err := New("again", hot, cold, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := again.State("/d/m")
	again.Close()
	if st != Migrated {
		t.Fatalf("a tier recovering from the hot namespace sees %v, want migrated", st)
	}

	setCold(data)
	if got := readObj(t, tier, "/d/m"); !bytes.Equal(got, data) {
		t.Fatal("recall after the repair returned other bytes")
	}
	if st := tier.Stats(); st.RecallErrors != 1 || st.Recalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoveClearsBothTiers(t *testing.T) {
	tier, hot, cold := newTier(t, Config{})
	writeObj(t, tier, "/d/x", payload('x', 4096))
	if err := tier.Migrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := hot.Stat("/d/x"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("hot still holds the stub: %v", err)
	}
	if _, err := cold.Stat("/d/x"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("cold still holds the copy: %v", err)
	}
	if err := tier.Remove("/d/x"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("double remove err = %v", err)
	}
}

func TestPlacementEventsOnBus(t *testing.T) {
	meta := metadata.NewStore()
	hot := adal.NewMemFS("hot")
	cold := adal.NewMemFS("cold")
	tier, err := New("tier", hot, cold, Config{Meta: meta, MountPrefix: "/ddn"})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	var mu sync.Mutex
	var seen []string
	meta.Subscribe(func(ev metadata.Event) {
		if ev.Type != metadata.EventPlacement {
			return
		}
		mu.Lock()
		seen = append(seen, ev.Dataset.Path+":"+ev.Placement)
		mu.Unlock()
	})

	writeObj(t, tier, "/d/x", payload('x', 4096))
	if err := tier.Migrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Recall("/d/x"); err != nil {
		t.Fatal(err)
	}
	meta.Flush()
	mu.Lock()
	defer mu.Unlock()
	want := []string{
		"/ddn/d/x:resident",
		"/ddn/d/x:premigrated",
		"/ddn/d/x:migrated",
		"/ddn/d/x:premigrated",
	}
	if len(seen) != len(want) {
		t.Fatalf("events = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("event[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
}

// TestSustainedIngestStress overfills a small hot tier from many
// concurrent writers while readers hammer already-written paths; the
// background machinery must keep utilization at the watermark and
// every read must come back byte-identical. Run with -race.
func TestSustainedIngestStress(t *testing.T) {
	pol := Policy{HighWatermark: 0.80, LowWatermark: 0.50, MinAge: 0}
	tier, _, _ := newTier(t, Config{
		Policy:           pol,
		HotCapacity:      256 * units.KiB,
		MigrationWorkers: 4,
	})

	const writers, perWriter = 4, 32
	const objSize = 8 * 1024
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				path := fmt.Sprintf("/ing/w%d-%d", w, i)
				writeObj(t, tier, path, payload(byte(w*31+i), objSize))
				// Read back something written earlier (possibly migrated).
				back := fmt.Sprintf("/ing/w%d-%d", w, i/2)
				r, err := tier.Open(back)
				if err != nil {
					failures.Add(1)
					continue
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil || !bytes.Equal(got, payload(byte(w*31+i/2), objSize)) {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d reads failed or differed", n)
	}
	// Settle: drain pending migrations, then run scans until the
	// watermark holds (recalls during the stress may have re-heated
	// files past the mark).
	for i := 0; i < 10; i++ {
		tier.Scan()
		tier.Wait()
		if tier.Utilization() <= pol.HighWatermark {
			break
		}
	}
	st := tier.Stats()
	if st.HotUtilization > pol.HighWatermark {
		t.Fatalf("settled utilization = %.2f, want <= %.2f", st.HotUtilization, pol.HighWatermark)
	}
	if st.Migrations == 0 {
		t.Fatal("stress run migrated nothing")
	}
	// Every object still reads back correctly after the dust settles.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			path := fmt.Sprintf("/ing/w%d-%d", w, i)
			if got := readObj(t, tier, path); !bytes.Equal(got, payload(byte(w*31+i), objSize)) {
				t.Fatalf("%s differs after settle", path)
			}
		}
	}
}

func TestStubEncodeDecode(t *testing.T) {
	in := stubInfo{
		size:     123456,
		checksum: "abcdef0123",
		modTime:  time.Date(2011, 5, 16, 12, 30, 45, 123456789, time.UTC),
	}
	out, ok := decodeStub(encodeStub(in))
	if !ok {
		t.Fatal("round trip did not decode")
	}
	if out.size != in.size || out.checksum != in.checksum || !out.modTime.Equal(in.modTime) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if _, ok := decodeStub([]byte("just some data")); ok {
		t.Fatal("plain data decoded as stub")
	}
}

// TestOpenNeverObservesSwapWindow hammers Open against continuous
// migrate/recall cycles of the same path (run with -race): no reader
// may ever see the stub bytes, an empty object, or a not-found — the
// op re-check in Open closes the unlocked window between the state
// check and the hot open.
func TestOpenNeverObservesSwapWindow(t *testing.T) {
	tier, _, _ := newTier(t, Config{})
	data := payload('q', 32*1024)
	writeObj(t, tier, "/d/hotswap", data)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := tier.Migrate("/d/hotswap"); err != nil {
				t.Errorf("migrate: %v", err)
				return
			}
			if err := tier.Recall("/d/hotswap"); err != nil {
				t.Errorf("recall: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := tier.Open("/d/hotswap")
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("reader observed wrong content: err=%v len=%d", err, len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}
