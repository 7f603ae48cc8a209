package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/readcache"
	"repro/internal/replication"
	"repro/internal/units"
)

// wanBackend meters a site backend as if it sat across a WAN link:
// every Open pays a round-trip and every byte read is charged to the
// link counter. Writes are not metered — both runs pay the same
// ingest cost, and the experiment's question is about read traffic.
type wanBackend struct {
	adal.Backend
	rtt       time.Duration
	readBytes units.Bytes
	mu        sync.Mutex
}

func (w *wanBackend) Open(path string) (io.ReadCloser, error) {
	time.Sleep(w.rtt)
	r, err := w.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	return &meteredReader{r: r, w: w}, nil
}

func (w *wanBackend) bytesRead() units.Bytes {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.readBytes
}

type meteredReader struct {
	r io.ReadCloser
	w *wanBackend
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.w.mu.Lock()
	m.w.readBytes += units.Bytes(n)
	m.w.mu.Unlock()
	return n, err
}

func (m *meteredReader) Close() error { return m.r.Close() }

// E16HotSetReadCache measures the hot-set read cache in front of the
// site federation from the reading community's point of view: all
// replicas live at remote sites (the paper's partner institutes), so
// every direct read crosses the WAN. A zipf-skewed analysis workload
// is run twice over identical reads — direct federated reads vs
// through the two-tier read cache — with one remote site killed and
// revived mid-run in both. The cache must collapse WAN read traffic
// to roughly one transfer per distinct object, bring the hot-set p99
// down toward a local read, and never serve bytes that differ from
// what the federation would serve.
func E16HotSetReadCache() (*Table, error) {
	const (
		objects  = 192
		objSize  = 64 * units.KiB
		reads    = 2400
		killAt   = 1200 // far1 dies mid-run...
		reviveAt = 1800 // ...and comes back before the run ends
		zipfSeed = 16
	)
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(i >> 4), 0xc3, 0x3c}, int(objSize)/4)
	}
	paths := make([]string, objects)
	for i := range paths {
		paths[i] = fmt.Sprintf("/exp/obj-%04d", i)
	}

	// Two remote sites only: the reading community has no local
	// replica, which is exactly when a local read cache matters.
	meta := metadata.NewStore()
	far1 := &wanBackend{Backend: adal.NewMemFS("far1"), rtt: 350 * time.Microsecond}
	far2 := &wanBackend{Backend: adal.NewMemFS("far2"), rtt: 700 * time.Microsecond}
	sites := []*replication.Site{
		replication.NewSite("far1", far1, 1),
		replication.NewSite("far2", far2, 2),
	}
	eng, err := replication.NewEngine(replication.Config{
		Sites: sites, MinReplicas: 2, Meta: meta, MountPrefix: "/sites",
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	fb := replication.NewFederated("fed", eng)
	for i, p := range paths {
		w, err := fb.Create(p)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(payload(i)); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	eng.Wait()
	wanAfterIngest := far1.bytesRead() + far2.bytesRead()

	// Local comparator: the same objects on a plain local backend.
	// Its p99 is the floor a cache could possibly reach.
	local := adal.NewMemFS("local")
	for i, p := range paths {
		w, err := local.Create(p)
		if err != nil {
			return nil, err
		}
		w.Write(payload(i))
		w.Close()
	}

	// runReads replays the identical zipf(1.1) stream against one
	// open function, killing and reviving far1 at fixed read indices
	// and verifying every byte against the original payload.
	runReads := func(open func(string) (io.ReadCloser, error), chaos bool) (lat []time.Duration, outageReads, failed, mismatches int) {
		zipf := rand.NewZipf(rand.New(rand.NewSource(zipfSeed)), 1.1, 1, objects-1)
		for i := 0; i < reads; i++ {
			if chaos {
				switch i {
				case killAt:
					sites[0].SetDown(true)
				case reviveAt:
					sites[0].SetDown(false)
				}
				if i >= killAt && i < reviveAt {
					outageReads++
				}
			}
			k := int(zipf.Uint64())
			start := time.Now()
			r, err := open(paths[k])
			if err != nil {
				failed++
				continue
			}
			got, err := io.ReadAll(r)
			r.Close()
			lat = append(lat, time.Since(start))
			if err != nil || !bytes.Equal(got, payload(k)) {
				mismatches++
			}
		}
		return
	}
	p99 := func(lat []time.Duration) time.Duration {
		s := append([]time.Duration(nil), lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[len(s)*99/100]
	}

	localLat, _, localFailed, localBad := runReads(local.Open, false)
	if localFailed != 0 || localBad != 0 {
		return nil, fmt.Errorf("local comparator: %d failed, %d mismatched", localFailed, localBad)
	}
	p99Local := p99(localLat)

	// Phase 1 — direct federated reads: every read crosses the WAN.
	directLat, directOutage, directFailed, directBad := runReads(fb.Open, true)
	eng.Wait() // drain the repair work the outage queued
	eng.Reconcile()
	eng.Wait() // far1's replicas re-verify back to Valid
	wanAfterDirect := far1.bytesRead() + far2.bytesRead()
	directWAN := wanAfterDirect - wanAfterIngest

	// Phase 2 — the same stream through the two-tier cache: memory
	// sized for the hot set, disk for the full working set.
	c := readcache.New(fb, readcache.Config{
		Memory: units.MiB,
		Disk:   adal.NewMemFS("cachedisk"), DiskBudget: 32 * units.MiB,
		Meta: meta, MountPrefix: "/sites",
	})
	defer c.Close()
	cachedLat, cachedOutage, cachedFailed, cachedBad := runReads(c.Open, true)
	eng.Wait()
	cachedWAN := far1.bytesRead() + far2.bytesRead() - wanAfterDirect
	p99Cached := p99(cachedLat)

	// Phase 3 — steady state: the working set is resident now, so a
	// second pass over the same stream is the hot-set latency the
	// cache converges to (and it should cost ~no WAN at all).
	steadyLat, _, steadyFailed, steadyBad := runReads(c.Open, false)
	steadyWAN := far1.bytesRead() + far2.bytesRead() - wanAfterDirect - cachedWAN
	p99Steady := p99(steadyLat)
	cachedFailed += steadyFailed
	cachedBad += steadyBad

	// Concurrent cold burst: singleflight collapses 16 simultaneous
	// misses of one object into one WAN transfer.
	c.Evict(paths[0])
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := c.Open(paths[0]); err == nil {
				io.Copy(io.Discard, r)
				r.Close()
			}
		}()
	}
	wg.Wait()

	// Invalidation: removing the object through the cache must leave
	// nothing servable — neither a cached copy nor a backend one.
	if err := c.Remove(paths[1]); err != nil {
		return nil, err
	}
	meta.Flush()
	_, stillCached := c.CacheTier(paths[1])
	_, openErr := c.Open(paths[1])
	removeClean := !stillCached && openErr != nil

	st := c.Stats()
	reduction := float64(directWAN) / float64(cachedWAN)
	return &Table{
		ID:         "E16",
		Title:      "Hot-set read cache: WAN collapse for federated reads (AAA)",
		PaperClaim: "partner communities analyse shared data from remote sites — repeated reads must not re-cross the WAN",
		Columns:    []string{"metric", "value"},
		Rows: [][]string{
			{"workload", fmt.Sprintf("%d zipf(1.1) reads over %d x %s, all replicas remote", reads, objects, objSize.SI())},
			{"WAN read bytes, direct", directWAN.SI()},
			{"WAN read bytes, cached", cachedWAN.SI()},
			{"WAN reduction", fmt.Sprintf("%.1fx", reduction)},
			{"p99 direct (remote)", p99(directLat).Round(time.Microsecond).String()},
			{"p99 cached (cold start + outage)", p99Cached.Round(time.Microsecond).String()},
			{"p99 cached (steady state)", p99Steady.Round(time.Microsecond).String()},
			{"steady-state WAN bytes", steadyWAN.SI()},
			{"p99 local direct", p99Local.Round(time.Microsecond).String()},
			{"steady-state p99 vs local", fmt.Sprintf("%.2fx", float64(p99Steady)/float64(p99Local))},
			{"reads during site outage (direct/cached)", fmt.Sprintf("%d / %d", directOutage, cachedOutage)},
			{"failed reads (direct/cached)", fmt.Sprintf("%d / %d", directFailed, cachedFailed)},
			{"content mismatches (direct/cached)", fmt.Sprintf("%d / %d", directBad, cachedBad)},
			{"cache hits (memory/disk)", fmt.Sprintf("%d / %d", st.MemHits, st.DiskHits)},
			{"hit rate", fmt.Sprintf("%.1f%%", 100*st.HitRate())},
			{"fills / fill bytes", fmt.Sprintf("%d / %s", st.Fills, units.Bytes(st.FillBytes).SI())},
			{"singleflight dedups (16-way cold burst)", fmt.Sprint(st.Dedups)},
			{"evictions / invalidations", fmt.Sprintf("%d / %d", st.Evictions, st.Invalidations)},
			{"remove leaves nothing servable", fmt.Sprintf("%v", removeClean)},
		},
		Notes: "direct and cached phases replay the identical zipf stream with the same " +
			"mid-run site kill/revive; every read is verified against the original bytes, " +
			"so the mismatch rows are the stale-read count. WAN = bytes read from either " +
			"remote site; the cached phase pays roughly one transfer per distinct object, " +
			"and the steady-state pass (working set resident) serves from the tiers alone.",
	}, nil
}
