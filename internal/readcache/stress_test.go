package readcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/replication"
	"repro/internal/units"
)

// testFedCache builds a 3-site federation with a read-through cache
// in front of it, all wired to one metadata bus — the full PR 5 +
// cache stack the facility assembles in production.
func testFedCache(t testing.TB, cacheCfg Config) (*Cache, *replication.FederatedBackend, *replication.Engine, []*replication.Site, *metadata.Store) {
	t.Helper()
	meta := metadata.NewStore()
	sites := []*replication.Site{
		replication.NewSite("kit", adal.NewMemFS("kit"), 0),
		replication.NewSite("gridka", adal.NewMemFS("gridka"), 1),
		replication.NewSite("desy", adal.NewMemFS("desy"), 2),
	}
	cat := replication.NewCatalog(replication.CatalogConfig{Meta: meta, MountPrefix: "/sites"})
	eng, err := replication.NewEngine(replication.Config{
		Catalog: cat, Sites: sites, MinReplicas: 3,
		Meta: meta, MountPrefix: "/sites",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	fb := replication.NewFederated("fed", eng)
	cacheCfg.Meta = meta
	cacheCfg.MountPrefix = "/sites"
	c := New(fb, cacheCfg)
	t.Cleanup(c.Close)
	return c, fb, eng, sites, meta
}

func fedWrite(t testing.TB, fb *replication.FederatedBackend, path string, data []byte) {
	t.Helper()
	w, err := fb.Create(path)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheStressKillRevive races cached reads, manual evictions,
// object remove/recreate cycles and a site kill/revive loop under
// -race: every successful read must return the object's exact bytes,
// and reads may fail only with not-found for an object that is
// legitimately mid-recreate.
func TestCacheStressKillRevive(t *testing.T) {
	c, fb, eng, sites, _ := testFedCache(t, Config{
		Memory: 96 * units.KiB,
		Disk:   adal.NewMemFS("cachedisk"), DiskBudget: 256 * units.KiB,
	})

	const objects = 24
	const objSize = 8 * units.KiB
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i), 0x5a}, int(objSize)/2)
	}
	paths := make([]string, objects)
	for i := range paths {
		paths[i] = fmt.Sprintf("/exp/obj-%03d", i)
		fedWrite(t, fb, paths[i], payload(i))
	}
	eng.Wait()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, notFounds atomic.Int64

	// Chaos: one site down at a time, kill/revive every few hundred µs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := sites[rng.Intn(len(sites))]
			s.SetDown(true)
			time.Sleep(300 * time.Microsecond)
			s.SetDown(false)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Evictor: hammers manual eviction so hits race removals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Evict(paths[rng.Intn(objects)])
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// Churner: removes and recreates the last object with identical
	// bytes, so fills race "dropped" invalidations.
	const churn = objects - 1
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Remove(paths[churn]); err == nil {
				w, err := fb.Create(paths[churn])
				if err == nil {
					w.Write(payload(churn))
					w.Close()
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Readers.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(objects)
				r, err := c.Open(paths[i])
				if err != nil {
					// The churn object may legitimately be mid-recreate
					// (not found) or have its only fanned-out-so-far
					// replica on the currently killed site (site down).
					if i == churn && (errors.Is(err, adal.ErrNotFound) ||
						errors.Is(err, replication.ErrSiteDown)) {
						notFounds.Add(1)
						continue
					}
					t.Errorf("open %s: %v", paths[i], err)
					return
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil {
					t.Errorf("read %s: %v", paths[i], err)
					return
				}
				if !bytes.Equal(got, payload(i)) {
					t.Errorf("stale/corrupt read of %s: %d bytes", paths[i], len(got))
					return
				}
				reads.Add(1)
			}
		}(int64(10 + g))
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if reads.Load() == 0 {
		t.Fatal("no reads completed")
	}
	st := c.Stats()
	t.Logf("reads=%d notFound=%d stats=%+v", reads.Load(), notFounds.Load(), st)
}

// propertySizes are the object sizes the property test holds: empty,
// one byte, around one block boundary, a ragged multi-block object and
// an exact multiple of the block size.
var propertySizes = []int64{0, 1, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 17, 8 * blockSize}

// tierShapes are the cache configurations it rotates through. Budgets
// are a few blocks, so blocks are evicted throughout; the admit cap
// lets the largest object in whole on the big tiers, while the small
// memory tier of "both" admits two blocks, so wider spans are served
// from disk-tier blocks alone.
var tierShapes = []struct {
	name string
	cfg  func() Config
}{
	{"memory", func() Config { return Config{Memory: 3 * units.MiB, AdmitFraction: 0.7} }},
	{"disk", func() Config {
		return Config{Disk: adal.NewMemFS("cachedisk"), DiskBudget: 3 * units.MiB, AdmitFraction: 0.7}
	}},
	{"both", func() Config {
		return Config{Memory: 768 * units.KiB, Disk: adal.NewMemFS("cachedisk"), DiskBudget: 3 * units.MiB, AdmitFraction: 0.7}
	}},
}

// drawRange picks a seeded (off, n) over an object of the given size:
// whole-object and to-the-end reads (n < 0), the empty read at
// off == size, ranges inside one block, across one boundary (also the
// one past the object's end), across several, and anything else.
func drawRange(rng *rand.Rand, size int64) (off, n int64) {
	switch rng.Intn(7) {
	case 0:
		return 0, -1
	case 1:
		return size, int64(rng.Intn(3)) - 1
	case 2:
		return rng.Int63n(size + 1), -1
	case 3: // inside one block
		off = rng.Int63n(size + 1)
		return off, rng.Int63n(blockSize - off%blockSize)
	case 4: // across the boundary after a random block
		edge := (1 + rng.Int63n(size/blockSize+1)) * blockSize
		off = max(0, edge-1-rng.Int63n(1000))
		return off, edge - off + 1 + rng.Int63n(1000)
	case 5: // across several
		off = rng.Int63n(size + 1)
		return off, 2*blockSize + rng.Int63n(3*blockSize)
	}
	off = rng.Int63n(size + 1)
	return off, rng.Int63n(size - off + 1)
}

func readRange(t *testing.T, b adal.RangeOpener, path string, off, n int64) []byte {
	t.Helper()
	r, err := b.OpenRange(context.Background(), path, off, n)
	if err != nil {
		t.Fatalf("open %s [%d,+%d): %v", path, off, n, err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read %s [%d,+%d): %v", path, off, n, err)
	}
	return got
}

// TestCachedMatchesDirectUnderKillSchedules is the property test: for
// seeded random kill/revive schedules and seeded (path, off, n) draws
// over objects of every interesting size, with a memory-only, a
// disk-only and a two-tier cache, a ranged read through the cache and
// the same ranged read of the federation must both return exactly
// those bytes of the original — the cache may never serve anything a
// direct read would not.
func TestCachedMatchesDirectUnderKillSchedules(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shape := tierShapes[seed%int64(len(tierShapes))]
			c, fb, eng, sites, _ := testFedCache(t, shape.cfg())
			rng := rand.New(rand.NewSource(seed))

			want := make([][]byte, len(propertySizes))
			paths := make([]string, len(propertySizes))
			for i, size := range propertySizes {
				paths[i] = fmt.Sprintf("/exp/obj-%d", i)
				want[i] = make([]byte, size)
				rng.Read(want[i])
				fedWrite(t, fb, paths[i], want[i])
			}
			eng.Wait()

			for step := 0; step < 80; step++ {
				// Mutate the outage pattern: at most one site down, so
				// a readable replica always exists.
				for _, s := range sites {
					s.SetDown(false)
				}
				if rng.Intn(4) > 0 {
					sites[rng.Intn(len(sites))].SetDown(true)
				}
				i := rng.Intn(len(paths))
				size := int64(len(want[i]))
				off, n := drawRange(rng, size)
				lo, end := min(off, size), size // a draw may start past the end: an empty read
				if n >= 0 {
					end = min(size, off+n)
				}
				end = max(lo, end)
				got := readRange(t, c, paths[i], off, n)
				direct := readRange(t, fb, paths[i], off, n)
				if !bytes.Equal(got, want[i][lo:end]) {
					t.Fatalf("%s step %d: cached %s [%d,+%d) = %d bytes, diverges from the original's %d", shape.name, step, paths[i], off, n, len(got), end-off)
				}
				if !bytes.Equal(got, direct) {
					t.Fatalf("%s step %d: cached read of %s [%d,+%d) differs from the direct read", shape.name, step, paths[i], off, n)
				}
			}
			for _, s := range sites {
				s.SetDown(false)
			}
			eng.Wait()
			st := c.Stats()
			if st.MemHits+st.DiskHits == 0 || st.Misses == 0 || st.Evictions == 0 || st.FillErrors != 0 {
				t.Fatalf("%s: the schedule did not exercise hits, fills and evictions, or a fill failed: %+v", shape.name, st)
			}
			for _, e := range c.Entries() {
				if !e.Verified {
					t.Fatalf("%s: %s cached unverified although the catalog holds its chain", shape.name, e.Path)
				}
			}
		})
	}
}
