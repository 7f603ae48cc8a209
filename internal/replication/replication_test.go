package replication

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/tiering"
	"repro/internal/units"
)

// testFed builds a 3-site federation with MinReplicas=2 over MemFS
// backends, wired to a metadata store.
func testFed(t *testing.T, cfg Config) (*FederatedBackend, *Engine, *Catalog, []*Site, *metadata.Store) {
	t.Helper()
	meta := metadata.NewStore()
	sites := []*Site{
		NewSite("kit", adal.NewMemFS("kit"), 0),
		NewSite("gridka", adal.NewMemFS("gridka"), 1),
		NewSite("desy", adal.NewMemFS("desy"), 2),
	}
	cat := NewCatalog(CatalogConfig{Meta: meta, MountPrefix: "/sites"})
	cfg.Catalog = cat
	cfg.Sites = sites
	if cfg.MinReplicas == 0 {
		cfg.MinReplicas = 2
	}
	cfg.Meta = meta
	cfg.MountPrefix = "/sites"
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return NewFederated("fed", eng), eng, cat, sites, meta
}

func writeObject(t *testing.T, fb *FederatedBackend, path string, data []byte) {
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

func readAll(t *testing.T, fb *FederatedBackend, path string) []byte {
	t.Helper()
	r, err := fb.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// nearestValid returns the site a federated read would be served
// from: the nearest (sites are in distance order) holder of a valid
// replica.
func nearestValid(t *testing.T, cat *Catalog, sites []*Site, path string) *Site {
	t.Helper()
	valid := make(map[string]bool)
	for _, name := range cat.ValidSites(path) {
		valid[name] = true
	}
	for _, s := range sites {
		if valid[s.Name] {
			return s
		}
	}
	t.Fatalf("no valid replica of %s", path)
	return nil
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "pending", Copying: "copying", Valid: "valid",
		Stale: "stale", Lost: "lost", State(42): "state(42)",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("State(%d).String() = %q, want %q", int(st), st.String(), s)
		}
	}
}

func TestCreateReplicatesToMinReplicas(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	data := bytes.Repeat([]byte("lsdf"), 4096)
	writeObject(t, fb, "/exp/run1", data)
	eng.Wait()

	if n := cat.CountValid("/exp/run1"); n < 2 {
		t.Fatalf("valid replicas = %d, want >= 2 (replicas: %+v)", n, cat.Replicas("/exp/run1"))
	}
	// The home copy plus exactly one transfer.
	if st := eng.Stats(); st.Transfers != 1 {
		t.Fatalf("transfers = %d, want 1 (%+v)", st.Transfers, st)
	}
	// Both copies byte-identical through their sites.
	for _, site := range cat.ValidSites("/exp/run1") {
		for _, s := range sites {
			if s.Name != site {
				continue
			}
			r, err := s.Backend.Open("/exp/run1")
			if err != nil {
				t.Fatalf("site %s: %v", site, err)
			}
			got, _ := io.ReadAll(r)
			r.Close()
			if !bytes.Equal(got, data) {
				t.Fatalf("site %s content mismatch: %d vs %d bytes", site, len(got), len(data))
			}
		}
	}
	if got := readAll(t, fb, "/exp/run1"); !bytes.Equal(got, data) {
		t.Fatal("federated read mismatch")
	}
}

func TestEnsureSingleflightNoDuplicateTransfers(t *testing.T) {
	fb, eng, _, _, _ := testFed(t, Config{})
	writeObject(t, fb, "/exp/one", []byte("payload"))
	// Hammer Ensure from many goroutines while the first transfer may
	// still be in flight.
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Ensure("/exp/one")
		}()
	}
	wg.Wait()
	eng.Wait()
	st := eng.Stats()
	if st.Transfers != 1 {
		t.Fatalf("transfers = %d, want exactly 1 (dedup skips %d)", st.Transfers, st.DedupSkips)
	}
}

func TestMetadataEventDrivesReplication(t *testing.T) {
	fb, eng, cat, _, meta := testFed(t, Config{})
	// Write through a Layer + register in metadata, as ingest does.
	layer := adal.NewLayer()
	if err := layer.Mount("/sites", fb); err != nil {
		t.Fatal(err)
	}
	n, sum, err := layer.WriteChecksummed("/sites/ds/a", strings.NewReader("event-driven"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := meta.Create("proj", "/sites/ds/a", n, sum, nil); err != nil {
		t.Fatal(err)
	}
	eng.Wait()
	if got := cat.CountValid("/ds/a"); got < 2 {
		t.Fatalf("valid = %d, want >= 2", got)
	}
	// Paths outside the mount are ignored.
	if _, err := meta.Create("proj", "/ddn/unrelated", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	eng.Wait()
	if cat.Known("/ddn/unrelated") || cat.Known("/unrelated") {
		t.Fatal("engine replicated a path outside its mount")
	}
}

func TestCatalogPublishesReplicaEvents(t *testing.T) {
	meta := metadata.NewStore()
	var mu sync.Mutex
	var got []string
	meta.Subscribe(func(ev metadata.Event) {
		if ev.Type != metadata.EventReplica {
			return
		}
		mu.Lock()
		got = append(got, fmt.Sprintf("%s@%s=%s", ev.Dataset.Path, ev.Site, ev.Placement))
		mu.Unlock()
	})
	cat := NewCatalog(CatalogConfig{Meta: meta, MountPrefix: "/sites"})
	cat.Set("/x", Replica{Site: "kit", State: Pending})
	cat.Mark("/x", "kit", Copying, "")
	cat.Mark("/x", "kit", Copying, "") // idempotent: no event
	cat.Mark("/x", "kit", Valid, "")
	cat.Drop("/x", "kit")
	want := []string{
		"/sites/x@kit=pending", "/sites/x@kit=copying",
		"/sites/x@kit=valid", "/sites/x@kit=dropped",
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
}

func TestFailoverReadMarksStaleAndReReplicates(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	data := bytes.Repeat([]byte("x"), 64*1024)
	writeObject(t, fb, "/exp/f", data)
	eng.Wait()

	if valid := cat.ValidSites("/exp/f"); len(valid) != 2 {
		t.Fatalf("valid = %v", valid)
	}
	// Kill the nearest valid site; the read must transparently come
	// from the other.
	killed := nearestValid(t, cat, sites, "/exp/f")
	killed.SetDown(true)
	if got := readAll(t, fb, "/exp/f"); !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong bytes")
	}
	if fb.FedStats().Failovers == 0 {
		t.Fatal("expected an open-time failover")
	}
	// The dead site's replica was marked and re-replication restored
	// MinReplicas on the surviving sites.
	eng.Wait()
	if rep, ok := cat.Get("/exp/f", killed.Name); !ok || rep.State == Valid {
		t.Fatalf("killed site replica = %+v, want stale/lost", rep)
	}
	if n := cat.CountValid("/exp/f"); n < 2 {
		t.Fatalf("valid after failover = %d, want >= 2", n)
	}
}

// flipBackend fails every Open as a site that died at the dial, after
// running onOpen — the hook a test uses to move the outage on.
type flipBackend struct {
	adal.Backend
	onOpen func()
}

func (f flipBackend) Open(string) (io.ReadCloser, error) {
	f.onOpen()
	return nil, fmt.Errorf("%w: at the dial", ErrSiteDown)
}

// TestOpenRevisitsSiteThatCameBack is the alternating kill/revive
// schedule made deterministic: the reader skips kit (down), then loses
// gridka at the dial — by which time kit is back and holds a valid
// copy. A read fails only if no replica is reachable when it gives
// up, so this one must succeed, from kit.
func TestOpenRevisitsSiteThatCameBack(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	data := bytes.Repeat([]byte("y"), 8*1024)
	writeObject(t, fb, "/exp/alt", data)
	eng.Wait()
	kit, gridka := sites[0], sites[1]
	if valid := cat.ValidSites("/exp/alt"); len(valid) != 2 || valid[0] != "gridka" || valid[1] != "kit" {
		t.Fatalf("valid = %v, want gridka and kit", valid)
	}
	kit.SetDown(true)
	gridka.Backend = flipBackend{Backend: gridka.Backend, onOpen: func() {
		kit.SetDown(false)
		gridka.SetDown(true)
	}}
	if got := readAll(t, fb, "/exp/alt"); !bytes.Equal(got, data) {
		t.Fatal("read after the outage moved on returned wrong bytes")
	}
	eng.Wait()
}

func TestMidStreamFailover(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	data := make([]byte, 256*1024)
	for i := range data {
		data[i] = byte(i * 31)
	}
	writeObject(t, fb, "/exp/mid", data)
	eng.Wait()

	first := nearestValid(t, cat, sites, "/exp/mid")
	r, err := fb.Open("/exp/mid")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Read half, kill the serving site, read the rest.
	half := make([]byte, len(data)/2)
	if _, err := io.ReadFull(r, half); err != nil {
		t.Fatal(err)
	}
	first.SetDown(true)
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("mid-stream failover failed: %v", err)
	}
	got := append(half, rest...)
	if !bytes.Equal(got, data) {
		t.Fatalf("stitched stream mismatch: %d bytes", len(got))
	}
	if fb.FedStats().MidStream == 0 {
		t.Fatal("expected a mid-stream failover")
	}
}

func TestReviveReverifiesWithoutTransfer(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	writeObject(t, fb, "/exp/rv", bytes.Repeat([]byte("rv"), 8192))
	eng.Wait()
	victim := nearestValid(t, cat, sites, "/exp/rv")
	victim.SetDown(true)
	readAll(t, fb, "/exp/rv") // marks the dead replica stale, schedules re-replication
	eng.Wait()
	if n := cat.CountValid("/exp/rv"); n < 2 {
		t.Fatalf("valid during outage = %d", n)
	}
	transfersBefore := eng.Stats().Transfers

	victim.SetDown(false)
	eng.Reconcile()
	eng.Wait()
	eng.Verify("/exp/rv")
	st := eng.Stats()
	if st.Transfers != transfersBefore {
		t.Fatalf("revive caused %d duplicate transfers", st.Transfers-transfersBefore)
	}
	if rep, _ := cat.Get("/exp/rv", victim.Name); rep.State != Valid {
		t.Fatalf("revived replica = %+v, want valid (reverifies=%d)", rep, st.Reverifies)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	writeObject(t, fb, "/exp/c", []byte("pristine content"))
	eng.Wait()
	valid := cat.ValidSites("/exp/c")
	// Tamper with one site's copy behind the catalog's back.
	var site *Site
	for _, s := range sites {
		if s.Name == valid[0] {
			site = s
		}
	}
	if err := site.Backend.Remove("/exp/c"); err != nil {
		t.Fatal(err)
	}
	w, err := site.Backend.Create("/exp/c")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("tampered!!"))
	w.Close()

	n, err := eng.Verify("/exp/c")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("verify confirmed %d replicas, want 1", n)
	}
	eng.Wait() // the refresh re-copies the good bytes back
	if got := cat.CountValid("/exp/c"); got < 2 {
		t.Fatalf("valid after verify+repair = %d", got)
	}
	r, _ := site.Backend.Open("/exp/c")
	fixed, _ := io.ReadAll(r)
	r.Close()
	if string(fixed) != "pristine content" {
		t.Fatalf("repair left %q", fixed)
	}
}

// flakyBackend fails every Read after the first failAfter bytes of
// one stream, once, to exercise the engine's source failover.
type flakyBackend struct {
	adal.Backend
	failAfter int
	mu        sync.Mutex
	tripped   bool
}

func (f *flakyBackend) Open(path string) (io.ReadCloser, error) {
	r, err := f.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	return &flakyReader{b: f, r: r}, nil
}

type flakyReader struct {
	b    *flakyBackend
	r    io.ReadCloser
	seen int
}

func (fr *flakyReader) Read(p []byte) (int, error) {
	fr.b.mu.Lock()
	tripped := fr.b.tripped
	if !tripped && fr.seen >= fr.b.failAfter {
		fr.b.tripped = true
		fr.b.mu.Unlock()
		return 0, errors.New("flaky: simulated source failure")
	}
	fr.b.mu.Unlock()
	if !tripped && fr.seen+len(p) > fr.b.failAfter {
		p = p[:fr.b.failAfter-fr.seen]
	}
	n, err := fr.r.Read(p)
	fr.seen += n
	return n, err
}

func (fr *flakyReader) Close() error { return fr.r.Close() }

func TestTransferResumesAcrossSourceFailure(t *testing.T) {
	meta := metadata.NewStore()
	flaky := &flakyBackend{Backend: adal.NewMemFS("a"), failAfter: 10 * 1024}
	resumed := newOffsetFS(adal.NewMemFS("b"))
	sites := []*Site{
		NewSite("a", flaky, 0),
		NewSite("b", resumed, 1),
		NewSite("c", adal.NewMemFS("c"), 2),
	}
	cat := NewCatalog(CatalogConfig{Meta: meta})
	eng, err := NewEngine(Config{
		Catalog: cat, Sites: sites, MinReplicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fb := NewFederated("fed", eng)

	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i)
	}
	// Seed the object on both a (flaky) and b so the copy to c can
	// start from a, trip, and resume from b.
	for _, s := range sites[:2] {
		w, err := s.Backend.Create("/big")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
	}
	sum := ""
	{
		layer := adal.NewLayer()
		layer.Mount("/", sites[1].Backend)
		sum, err = layer.Checksum("/big")
		if err != nil {
			t.Fatal(err)
		}
	}
	cat.Set("/big", Replica{Site: "a", State: Valid, Size: units.Bytes(len(data)), Checksum: sum})
	cat.Set("/big", Replica{Site: "b", State: Valid, Size: units.Bytes(len(data)), Checksum: sum})
	resumed.reset()

	eng.Ensure("/big")
	eng.Wait()
	if n := cat.CountValid("/big"); n != 3 {
		t.Fatalf("valid = %d, want 3 (%+v)", n, cat.Replicas("/big"))
	}
	if eng.Stats().SourceFailovers == 0 {
		t.Fatal("expected a mid-copy source failover")
	}
	// The resume seeks: b serves the tail and not one byte before it.
	if _, read, lowest := resumed.snapshot(); lowest != int64(flaky.failAfter) || read != int64(len(data)-flaky.failAfter) {
		t.Fatalf("resume source read %d bytes from offset %d, want %d from %d", read, lowest, len(data)-flaky.failAfter, flaky.failAfter)
	}
	// The transfer's own hash pass gave the new replica its chain.
	if rep, _ := cat.Get("/big", "c"); rep.Checksum != sum || len(rep.Chain) != 0 {
		t.Fatalf("replica on c: sum %.12s, chain of %d bytes for a one-block object", rep.Checksum, len(rep.Chain))
	}
	if got := readAll(t, fb, "/big"); !bytes.Equal(got, data) {
		t.Fatal("resumed copy corrupted the object")
	}
}

func TestReplicateFromTieredSiteRecalls(t *testing.T) {
	// A site whose backend is a TierBackend: replicating a migrated
	// object recalls it transparently, then copies.
	hot, cold := adal.NewMemFS("hot"), adal.NewMemFS("cold")
	tier, err := tiering.New("tiersite", hot, cold, tiering.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	meta := metadata.NewStore()
	sites := []*Site{
		NewSite("tiered", tier, 0),
		NewSite("plain", adal.NewMemFS("plain"), 1),
	}
	cat := NewCatalog(CatalogConfig{Meta: meta})
	eng, err := NewEngine(Config{Catalog: cat, Sites: sites, MinReplicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fb := NewFederated("fed", eng)

	data := bytes.Repeat([]byte("cold data "), 1000)
	writeObject(t, fb, "/arch/x", data)
	// Migrate the home copy to the cold tier before replication needs
	// to read it... first drain the initial fan-out, then force the
	// state we want.
	eng.Wait()
	if err := tier.Migrate("/arch/x"); err != nil {
		t.Fatal(err)
	}
	// Drop the plain site's replica and re-ensure: the new copy must
	// come from the migrated (recall-then-copy) source.
	if err := sites[1].Backend.Remove("/arch/x"); err != nil {
		t.Fatal(err)
	}
	cat.Drop("/arch/x", "plain")
	recallsBefore := tier.Stats().Recalls
	eng.Ensure("/arch/x")
	eng.Wait()
	if n := cat.CountValid("/arch/x"); n != 2 {
		t.Fatalf("valid = %d (%+v)", n, cat.Replicas("/arch/x"))
	}
	if tier.Stats().Recalls == recallsBefore {
		t.Fatal("expected the transfer to recall the migrated source")
	}
	if got := readAll(t, fb, "/arch/x"); !bytes.Equal(got, data) {
		t.Fatal("recall-then-copy corrupted the object")
	}
}

func TestFederatedStatListRemove(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	writeObject(t, fb, "/d/a", []byte("aaaa"))
	writeObject(t, fb, "/d/b", []byte("bbbbbbbb"))
	eng.Wait()

	info, err := fb.Stat("/d/a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 4 || info.Path != "/d/a" {
		t.Fatalf("stat = %+v", info)
	}
	infos, err := fb.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Path != "/d/a" || infos[1].Path != "/d/b" {
		t.Fatalf("list = %+v", infos)
	}
	// List survives a site outage.
	sites[0].SetDown(true)
	infos, err = fb.List("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("list during outage = %+v", infos)
	}
	sites[0].SetDown(false)

	if err := fb.Remove("/d/a"); err != nil {
		t.Fatal(err)
	}
	if cat.Known("/d/a") {
		t.Fatal("remove left catalog entry")
	}
	if _, err := fb.Open("/d/a"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("open after remove: %v", err)
	}
	if _, err := fb.Stat("/d/missing"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("stat missing: %v", err)
	}
	if _, err := fb.Create("/d/b"); !errors.Is(err, adal.ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestWANPacing(t *testing.T) {
	var slept time.Duration
	w := NewWAN(units.BytesPerSecond(1*units.MiB), 5*time.Millisecond)
	w.sleep = func(d time.Duration) { slept += d }
	w.Pace("a", "b", int(512*units.KiB))
	if slept < 400*time.Millisecond || slept > 600*time.Millisecond {
		t.Fatalf("paced %v for 512 KiB at 1 MiB/s, want ~500ms", slept)
	}
	slept = 0
	w.SetLink("a", "b", units.BytesPerSecond(2*units.MiB), time.Millisecond)
	w.Pace("a", "b", int(512*units.KiB))
	if slept < 200*time.Millisecond || slept > 300*time.Millisecond {
		t.Fatalf("degraded-link pacing = %v, want ~250ms", slept)
	}
	if got := w.Latency("a", "b"); got != time.Millisecond {
		t.Fatalf("latency = %v", got)
	}
	if got := w.Latency("x", "y"); got != 5*time.Millisecond {
		t.Fatalf("default latency = %v", got)
	}
	// nil WAN is a no-op.
	var nilWAN *WAN
	nilWAN.Pace("a", "b", 1<<20)
	if nilWAN.Latency("a", "b") != 0 {
		t.Fatal("nil WAN latency")
	}
}

func TestWANPacedTransferRespectsPairCap(t *testing.T) {
	meta := metadata.NewStore()
	sites := []*Site{
		NewSite("src", adal.NewMemFS("src"), 0),
		NewSite("dst", adal.NewMemFS("dst"), 1),
	}
	cat := NewCatalog(CatalogConfig{Meta: meta})
	wan := NewWAN(units.BytesPerSecond(64*units.MiB), 0)
	eng, err := NewEngine(Config{
		Catalog: cat, Sites: sites, MinReplicas: 2,
		Streams: 8, PairStreams: 1, WAN: wan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Track concurrent holders of the src->dst pair by wrapping sleep.
	var mu sync.Mutex
	cur, peak := 0, 0
	wan.sleep = func(d time.Duration) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		time.Sleep(d / 4)
		mu.Lock()
		cur--
		mu.Unlock()
	}

	fb := NewFederated("fed", eng)
	for i := 0; i < 6; i++ {
		writeObject(t, fb, fmt.Sprintf("/p/%d", i), bytes.Repeat([]byte{byte(i)}, 64*1024))
	}
	eng.Wait()
	for i := 0; i < 6; i++ {
		if n := cat.CountValid(fmt.Sprintf("/p/%d", i)); n != 2 {
			t.Fatalf("object %d: valid = %d", i, n)
		}
	}
	if peak > 1 {
		t.Fatalf("pair cap 1 but %d concurrent paced streams", peak)
	}
}
