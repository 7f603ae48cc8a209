package hsm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/tiering"
	"repro/internal/units"
)

// gatedBackend holds cold-tier writes while closed, so a second scan
// runs before the first pass's copies finish.
type gatedBackend struct {
	adal.Backend
	mu   sync.Mutex
	gate chan struct{}
}

func (g *gatedBackend) hold() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedBackend) release() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *gatedBackend) Create(path string) (io.WriteCloser, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.Backend.Create(path)
}

// TestManagerMatchesLiveTier drives one seeded trace of stores,
// accesses, deletes and clock advances through a Manager in virtual
// time and through a TierBackend holding real bytes of the same sizes,
// on a hot tier of the same capacity, with a clock that reads the same
// virtual time. After every step both run two scans back to back — the
// second while the first pass's copies are in flight — and must then
// hold every file in the same state, the same hot bytes, and count the
// same migrations and recalls.
func TestManagerMatchesLiveTier(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runTwin(t, seed) })
	}
}

func runTwin(t *testing.T, seed int64) {
	const capacity = 256 * units.KiB
	pol := tiering.Policy{HighWatermark: 0.85, LowWatermark: 0.70, MinAge: 30 * time.Minute, CartridgeSize: 64 * units.KiB}

	eng := sim.New(seed)
	disk := storage.NewArray(eng, "disk", capacity, units.Rate(5*units.GB))
	if _, err := disk.CreateVolume("data", 0); err != nil {
		t.Fatal(err)
	}
	m, err := New(eng, disk, "data", tape.New(eng, tape.DefaultConfig()), pol)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var vnow atomic.Int64 // the tier's clock: the engine's time, set by this goroutine
	cold := &gatedBackend{Backend: adal.NewMemFS("cold")}
	tier, err := tiering.New("tier", adal.NewMemFS("hot"), cold, tiering.Config{
		Policy:      pol,
		HotCapacity: capacity,
		Meta:        metadata.NewStore(),
		Clock:       func() time.Time { return time.Unix(0, vnow.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	settle := func() {
		eng.Run()
		tier.Wait()
		vnow.Store(int64(eng.Now()))
	}

	rng := rand.New(rand.NewSource(seed))
	var names []string
	for step := 0; step < 400; step++ {
		switch k := rng.Intn(20); {
		case k < 9: // store
			name := fmt.Sprintf("/f%03d", step)
			size := units.Bytes(4+rng.Intn(13)) * units.KiB
			if disk.Used()+size > capacity {
				continue
			}
			if err := m.Store(name, size); err != nil {
				t.Fatal(err)
			}
			w, err := tier.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(bytes.Repeat([]byte{byte(step)}, int(size))); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		case k < 14 && len(names) > 0: // access
			name := names[rng.Intn(len(names))]
			if f := mustLookup(t, m, name); f.State == Migrated && disk.Used()+f.Size > capacity {
				continue // no room to recall into
			}
			m.Access(name, func(err error) {
				if err != nil {
					t.Errorf("access %s: %v", name, err)
				}
			})
			r, err := tier.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			_, err = io.Copy(io.Discard, r)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			settle()
		case k < 15 && len(names) > 0: // delete
			i := rng.Intn(len(names))
			if err := m.Delete(names[i]); err != nil {
				t.Fatal(err)
			}
			if err := tier.Remove(names[i]); err != nil {
				t.Fatal(err)
			}
			names = append(names[:i], names[i+1:]...)
		default: // time passes
			eng.RunUntil(eng.Now() + time.Duration(1+rng.Intn(40))*time.Minute)
			vnow.Store(int64(eng.Now()))
		}

		cold.hold()
		m.Scan()
		m.Scan()
		tier.Scan()
		tier.Scan()
		cold.release()
		settle()

		hs, ts := m.Stats(), tier.Stats()
		if disk.Used() != ts.HotUsed || hs.MigratedFiles != ts.Migrations || hs.Recalls != ts.Recalls {
			t.Fatalf("step %d: hsm disk %v, %d migrations, %d recalls; tier hot %v, %d migrations, %d recalls",
				step, disk.Used(), hs.MigratedFiles, hs.Recalls, ts.HotUsed, ts.Migrations, ts.Recalls)
		}
		for _, name := range names {
			want := mustLookup(t, m, name).State
			if got, _ := tier.State(name); got != want {
				t.Fatalf("step %d: %s is %v in the tier, %v in the model", step, name, got, want)
			}
		}
	}
	hs := m.Stats()
	if hs.MigratedFiles == 0 || hs.Recalls == 0 {
		t.Fatalf("trace exercised too little: %+v", hs)
	}
	t.Logf("%d files, %d migrations, %d recalls, disk %.0f%%", len(names), hs.MigratedFiles, hs.Recalls, 100*hs.DiskUtilization)
}
