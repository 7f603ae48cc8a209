package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/ingest"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
	"repro/internal/replication"
)

// obj is one object handed to a front door.
type obj struct {
	path string
	data []byte
	tags []string
}

// rig is one front door over a fresh store.
type rig struct {
	layer *adal.Layer
	meta  *metadata.Store
	// put stores-and-registers objs through the door; errs[i] is what
	// the door said about objs[i].
	put func(objs []obj) []error
	// walCommits is how many WAL commits the puts so far cost; breakWAL
	// makes the next registration fail. Both nil on a non-durable rig.
	walCommits func() int
	breakWAL   func()
}

// shardSyncFS counts WAL fsyncs per metadata shard, and can fail every
// sync from the n-th on.
type shardSyncFS struct {
	durafs.FS
	fault     *durafs.Fault
	mu        sync.Mutex
	syncs     map[int]int // WAL shard -> fsyncs
	total     int
	failAfter int // > 0: the disk dies after this many WAL fsyncs
}

func newShardSyncFS(fault *durafs.Fault) *shardSyncFS {
	return &shardSyncFS{FS: fault, fault: fault, syncs: make(map[int]int)}
}

func (c *shardSyncFS) totalSyncs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func (c *shardSyncFS) OpenAppend(name string) (durafs.File, error) {
	f, err := c.FS.OpenAppend(name)
	var shard int
	if _, perr := fmt.Sscanf(path.Base(name), "shard-%d", &shard); err != nil || perr != nil {
		return f, err
	}
	return &shardSyncFile{File: f, fs: c, shard: shard}, nil
}

type shardSyncFile struct {
	durafs.File
	fs    *shardSyncFS
	shard int
}

func (f *shardSyncFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	c.syncs[f.shard]++
	c.total++
	if c.total == c.failAfter {
		c.fault.FailSyncs(1 << 20)
	}
	c.mu.Unlock()
	return f.File.Sync()
}

// parts builds the stack the pipeline and gateway rigs share: a "/"
// MemFS mount and a metadata store that, when durable, journals to a
// fault-injecting in-memory disk behind the sync counter.
func parts(t *testing.T, durable bool) *rig {
	t.Helper()
	layer := adal.NewLayer()
	if err := layer.Mount("/", adal.NewMemFS("store")); err != nil {
		t.Fatal(err)
	}
	r := &rig{layer: layer}
	opts := metadata.Options{}
	if durable {
		fault := durafs.NewFault(durafs.NewMem(), nil)
		counter := newShardSyncFS(fault)
		opts.WALDir, opts.FS = "wal", counter
		r.breakWAL = func() { fault.FailSyncs(1 << 20) }
		defer func() { // after Open: its own syncs are not ingest's
			base := counter.totalSyncs()
			r.walCommits = func() int { return counter.totalSyncs() - base }
		}()
	}
	meta, err := metadata.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(meta.Close)
	r.meta = meta
	return r
}

func pipelineDoor(batch int) func(*testing.T, bool) *rig {
	return func(t *testing.T, durable bool) *rig {
		r := parts(t, durable)
		r.put = func(objs []obj) []error {
			out := make([]error, len(objs))
			at := make(map[*ingest.Object]int, len(objs))
			in := make([]*ingest.Object, len(objs))
			for i, o := range objs {
				in[i] = &ingest.Object{Project: "p", Path: o.path, Data: bytes.NewReader(o.data), Tags: o.tags}
				at[in[i]] = i
			}
			p := ingest.New(r.layer, r.meta, ingest.Config{
				Workers: 1, BatchSize: batch,
				OnError: func(o *ingest.Object, err error) { out[at[o]] = err },
			})
			if _, err := p.Run(context.Background(), &ingest.SliceProducer{Objects: in}); err != nil {
				t.Fatal(err)
			}
			return out
		}
		return r
	}
}

// coreDoor cannot be handed a filesystem — core.New takes facility
// options, and they name a WAL directory, not an FS — so its durable
// rig journals to a real directory: a commit is a WAL record found on
// reopen, and the journal is broken by closing it under the facility.
func coreDoor(batched bool) func(*testing.T, bool) *rig {
	return func(t *testing.T, durable bool) *rig {
		opts := core.Options{}
		if durable {
			opts.WALDir = t.TempDir()
		}
		fc, err := core.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fc.Close)
		r := &rig{layer: fc.Layer(), meta: fc.Metadata()}
		if durable {
			r.breakWAL = fc.Metadata().Close
			r.walCommits = func() int {
				fc.Close()
				re, err := metadata.Open(metadata.Options{WALDir: opts.WALDir})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				return re.RecoveryStats().RecordsReplayed
			}
		}
		r.put = func(objs []obj) []error {
			out := make([]error, len(objs))
			if !batched {
				for i, o := range objs {
					ds, err := fc.Store("p", o.path, bytes.NewReader(o.data), nil, o.tags...)
					out[i] = err
					if err == nil && !reflect.DeepEqual(ds.Tags, o.tags) {
						t.Errorf("core.Store returned tags %v, want %v", ds.Tags, o.tags)
					}
				}
				return out
			}
			in := make([]ingest.Object, len(objs))
			for i, o := range objs {
				in[i] = ingest.Object{Project: "p", Path: o.path, Data: bytes.NewReader(o.data), Tags: o.tags}
			}
			for i, cr := range fc.StoreBatch(in) {
				out[i] = cr.Err
				if cr.Err == nil && !reflect.DeepEqual(cr.Dataset.Tags, objs[i].tags) {
					t.Errorf("core.StoreBatch returned tags %v, want %v", cr.Dataset.Tags, objs[i].tags)
				}
			}
			return out
		}
		return r
	}
}

func gatewayDoor(batched bool) func(*testing.T, bool) *rig {
	return func(t *testing.T, durable bool) *rig {
		r := parts(t, durable)
		srv, err := gateway.ForFacility(&facility.Facility{Layer: r.layer, Meta: r.meta}, gateway.Config{
			Tenants: []gateway.Tenant{{Name: "t", Token: "tok", Prefixes: []string{"/"}, RPS: 1e6}},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		c, err := client.New(hs.URL, "tok", client.Options{MaxRetries: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		r.put = func(objs []obj) []error {
			out := make([]error, len(objs))
			if !batched {
				for i, o := range objs {
					_, out[i] = c.PutObject(ctx, o.path, o.data, "p", o.tags...)
				}
				return out
			}
			in := make([]gateway.IngestObject, len(objs))
			for i, o := range objs {
				in[i] = gateway.IngestObject{Path: o.path, Project: "p", Data: o.data, Tags: o.tags}
			}
			res, err := c.Ingest(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			for i, ir := range res.Results {
				if ir.Error != "" {
					out[i] = errors.New(ir.Error)
				}
			}
			return out
		}
		return r
	}
}

// noInvisibleData is the store-and-register invariant: every stored
// object is registered.
func noInvisibleData(t *testing.T, r *rig, prefix string) {
	t.Helper()
	infos, err := r.layer.List(prefix)
	if err != nil && !errors.Is(err, adal.ErrNotFound) {
		t.Fatal(err)
	}
	for _, info := range infos {
		if _, ok := r.meta.ByPath(info.Path); !ok && !info.IsDir {
			t.Errorf("%s is stored but unregistered", info.Path)
		}
	}
}

// TestEveryFrontDoorStoresAndRegistersAlike drives every way data
// enters the facility against a store whose registration fails, and
// asserts the same three things for each: no object is left stored
// but unregistered, a registered object has all its tags from the
// moment it exists, and on a durable store an object with T tags
// costs one WAL commit, not 1+T.
func TestEveryFrontDoorStoresAndRegistersAlike(t *testing.T) {
	doors := []struct {
		name string
		open func(t *testing.T, durable bool) *rig
	}{
		{"pipeline/batch=1", pipelineDoor(1)},
		{"pipeline/batch=64", pipelineDoor(64)},
		{"core.Store", coreDoor(false)},
		{"core.StoreBatch", coreDoor(true)},
		{"gateway/ingest", gatewayDoor(true)},
		{"gateway/put-project", gatewayDoor(false)},
	}
	tags := []string{"cal", "raw", "v1"} // sorted, as datasets keep them
	for _, door := range doors {
		t.Run(door.name+"/duplicate-path", func(t *testing.T) {
			r := door.open(t, false)
			// The path is registered but holds no bytes: the store
			// succeeds, the registration cannot.
			if _, err := r.meta.Create("p", "/ddn/fd/dup", 1, "", nil); err != nil {
				t.Fatal(err)
			}
			// Tags are atomic with the creation: whoever hears of the
			// dataset first already finds every tag on it.
			var early []string
			unsub := r.meta.Subscribe(func(ev metadata.Event) {
				if ev.Type != metadata.EventCreated {
					return
				}
				if ds, _ := r.meta.Get(ev.Dataset.ID); !reflect.DeepEqual(ds.Tags, tags) {
					early = append(early, fmt.Sprintf("%s created with tags %v", ds.Path, ds.Tags))
				}
			})
			defer unsub()
			out := r.put([]obj{
				{"/ddn/fd/ok1", []byte("one"), tags},
				{"/ddn/fd/dup", []byte("clash"), tags},
				{"/ddn/fd/ok2", []byte("two"), tags},
			})
			if out[0] != nil || out[2] != nil || out[1] == nil {
				t.Fatalf("outcomes = %v, want ok, error, ok", out)
			}
			if _, err := r.layer.Stat("/ddn/fd/dup"); !errors.Is(err, adal.ErrNotFound) {
				t.Errorf("bytes of the failed registration were not removed: %v", err)
			}
			noInvisibleData(t, r, "/ddn/fd")
			for _, p := range []string{"/ddn/fd/ok1", "/ddn/fd/ok2"} {
				ds, ok := r.meta.ByPath(p)
				if !ok || !reflect.DeepEqual(ds.Tags, tags) {
					t.Errorf("%s: registered=%v tags=%v, want %v", p, ok, ds.Tags, tags)
				}
			}
			for _, e := range early {
				t.Error(e)
			}
		})
		t.Run(door.name+"/one-wal-commit", func(t *testing.T) {
			r := door.open(t, true)
			if out := r.put([]obj{{"/ddn/fd/tagged", []byte("bytes"), tags}}); out[0] != nil {
				t.Fatal(out[0])
			}
			if n := r.walCommits(); n != 1 {
				t.Errorf("an object with %d tags cost %d WAL commits, want 1", len(tags), n)
			}
		})
		t.Run(door.name+"/wal-fault", func(t *testing.T) {
			r := door.open(t, true)
			r.breakWAL()
			out := r.put([]obj{{"/ddn/fd/lost", []byte("bytes"), tags}})
			if out[0] == nil {
				t.Fatal("registration on a failed WAL was acknowledged")
			}
			if _, err := r.layer.Stat("/ddn/fd/lost"); !errors.Is(err, adal.ErrNotFound) {
				t.Errorf("bytes of the failed registration were not removed: %v", err)
			}
			noInvisibleData(t, r, "/ddn/fd")
		})
	}
	// What a batch of more than one adds to the rule: its objects are
	// written together.
	t.Run("batch/shares-group-commits", batchSharesGroupCommits)
	t.Run("batch/duplicate-path-first-wins", batchDuplicatePathFirstWins)
	t.Run("batch/wal-fault-mid-batch", batchWALFaultMidBatch)
	t.Run("batch/retry-after-home-site-died", batchRetryAfterHomeSiteDied)
}

// replicatedParts is the stack a production ingest batch runs on: a
// federated backend on /ddn over the named sites, nearest first, whose
// catalog notes a home replica per stored object into the same durable
// store that registers it. With more than one site the engine copies
// each registered object on, in the background.
func replicatedParts(t *testing.T, opts metadata.Options, sites ...string) (*rig, *shardSyncFS, *replication.Engine) {
	t.Helper()
	fault := durafs.NewFault(durafs.NewMem(), nil)
	counter := newShardSyncFS(fault)
	opts.WALDir, opts.FS = "wal", counter
	meta, err := metadata.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(meta.Close)
	catalog := replication.NewCatalog(replication.CatalogConfig{Meta: meta, MountPrefix: "/ddn"})
	var fed []*replication.Site
	for i, name := range sites {
		fed = append(fed, replication.NewSite(name, adal.NewMemFS(name), i))
	}
	engine, err := replication.NewEngine(replication.Config{
		Catalog: catalog, Sites: fed, Meta: meta, MountPrefix: "/ddn",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	layer := adal.NewLayer()
	if err := layer.Mount("/ddn", replication.NewFederated("ddn", engine)); err != nil {
		t.Fatal(err)
	}
	return &rig{layer: layer, meta: meta}, counter, engine
}

// killingReader takes the site down once its first bytes are read, so
// the write that follows meets a dead home site.
type killingReader struct {
	io.Reader
	site *replication.Site
}

func (k killingReader) Read(p []byte) (int, error) {
	n, err := k.Reader.Read(p)
	k.site.SetDown(true)
	return n, err
}

// batchRetryAfterHomeSiteDied: the home site dies under one object of a
// batch. That object fails and is neither readable nor registered — but
// the dead site could not be cleaned, and keeps what it had committed.
// With the site back, storing the same path again succeeds: the
// leftover is an orphan the catalog never knew, not an existing object.
func batchRetryAfterHomeSiteDied(t *testing.T) {
	meta := metadata.NewStore()
	kit := replication.NewSite("kit", adal.NewMemFS("kit"), 0)
	engine, err := replication.NewEngine(replication.Config{
		Catalog: replication.NewCatalog(replication.CatalogConfig{Meta: meta, MountPrefix: "/ddn"}),
		Sites:   []*replication.Site{kit},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	layer := adal.NewLayer()
	if err := layer.Mount("/ddn", replication.NewFederated("ddn", engine)); err != nil {
		t.Fatal(err)
	}
	object := func(data io.Reader) []*ingest.Object {
		return []*ingest.Object{{Project: "p", Path: "/ddn/retry/obj", Data: data}}
	}

	res := ingest.StoreBatch(layer, meta, object(killingReader{strings.NewReader("lost with the site"), kit}))
	if !errors.Is(res[0].Err, replication.ErrSiteDown) {
		t.Fatalf("store on a dying home site: %v, want ErrSiteDown", res[0].Err)
	}
	kit.SetDown(false)
	if _, err := kit.Backend.Stat("/retry/obj"); err != nil {
		t.Fatalf("want the dead site to have kept an orphan: %v", err)
	}
	if _, err := layer.Stat("/ddn/retry/obj"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("the failed object is visible: %v", err)
	}

	res = ingest.StoreBatch(layer, meta, object(strings.NewReader("the retry's bytes")))
	if res[0].Err != nil {
		t.Fatalf("retry with the site back: %v", res[0].Err)
	}
	rd, err := layer.Open("/ddn/retry/obj")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rd)
	rd.Close()
	if ds, ok := meta.ByPath("/ddn/retry/obj"); string(data) != "the retry's bytes" || !ok || ds.ID != res[0].Dataset.ID {
		t.Fatalf("after the retry the path holds %q, registered %v", data, ok)
	}
}

func batchOf(n int, pathOf func(i int) string) []*ingest.Object {
	objs := make([]*ingest.Object, n)
	for i := range objs {
		objs[i] = &ingest.Object{Project: "p", Path: pathOf(i), Data: strings.NewReader(fmt.Sprintf("payload %02d", i)), Tags: []string{"raw"}}
	}
	return objs
}

// batchSharesGroupCommits: each object of a batch notes its home
// replica as it is stored. The notes are staged, and the registration
// that acknowledges them makes them durable in its own round, so a
// touched shard pays one fsync for the batch — notes and registrations
// both. The copies to the second site that the registrations trigger
// stage their Valid notes too: they add no fsync until Engine.Wait.
func batchSharesGroupCommits(t *testing.T) {
	r, counter, engine := replicatedParts(t, metadata.Options{Shards: 4}, "kit", "far")
	objs := batchOf(16, func(i int) string { return fmt.Sprintf("/ddn/gc/%02d", i) })
	for i, cr := range ingest.StoreBatch(r.layer, r.meta, objs) {
		if cr.Err != nil {
			t.Fatalf("object %d: %v", i, cr.Err)
		}
		if cr.Dataset.Path != objs[i].Path {
			t.Fatalf("result %d is for %s, want %s", i, cr.Dataset.Path, objs[i].Path)
		}
		if got := r.meta.Replicas(objs[i].Path)["kit"]; got != "valid" {
			t.Errorf("%s: home replica noted as %q, want valid", objs[i].Path, got)
		}
	}
	counter.mu.Lock()
	batch := counter.total
	if len(counter.syncs) == 0 {
		t.Error("no WAL fsync seen")
	}
	for shard, n := range counter.syncs {
		if n > 1 {
			t.Errorf("WAL shard %d paid %d fsyncs for one batch, want <= 1", shard, n)
		}
	}
	counter.mu.Unlock()

	// The copies run on the engine's workers; the store's table shows
	// each Valid note as soon as it is staged.
	for _, o := range objs {
		for deadline := time.Now().Add(10 * time.Second); r.meta.Replicas(o.Path)["far"] != "valid"; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never copied to far: %v", o.Path, r.meta.Replicas(o.Path))
			}
		}
	}
	if n := counter.totalSyncs(); n != batch {
		t.Errorf("copying the batch to a second site paid %d fsyncs before Engine.Wait, want 0", n-batch)
	}
	// Copies that finished before the registration rode its fsyncs;
	// Engine.Wait pays at most one per shard for the rest, and what it
	// returns on survives a power cut.
	engine.Wait()
	if n := counter.totalSyncs() - batch; n > 4 {
		t.Errorf("Engine.Wait paid %d fsyncs for the staged copy notes, want <= 4 (one per shard)", n)
	}
	mem := counter.fault.Inner()
	mem.Crash(nil)
	re, err := metadata.Open(metadata.Options{Shards: 4, WALDir: "wal", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, o := range objs {
		if got := re.Replicas(o.Path); got["kit"] != "valid" || got["far"] != "valid" {
			t.Errorf("%s: after a power cut the replica notes read %v, want kit and far valid", o.Path, got)
		}
	}
}

// batchDuplicatePathFirstWins: two objects of one batch name the
// same path; whichever comes first in the input is stored and
// registered, the other fails, however the writes are scheduled.
func batchDuplicatePathFirstWins(t *testing.T) {
	for round := 0; round < 10; round++ {
		r := parts(t, false)
		const first, second = 3, 11
		objs := batchOf(16, func(i int) string {
			if i == second {
				i = first
			}
			return fmt.Sprintf("/fw/%02d", i)
		})
		res := ingest.StoreBatch(r.layer, r.meta, objs)
		for i, cr := range res {
			if (cr.Err != nil) != (i == second) {
				t.Fatalf("round %d: object %d: err = %v", round, i, cr.Err)
			}
		}
		if !errors.Is(res[second].Err, adal.ErrExists) {
			t.Errorf("the repeated path failed with %v, want ErrExists", res[second].Err)
		}
		rd, err := r.layer.Open(objs[first].Path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(rd)
		rd.Close()
		if want := fmt.Sprintf("payload %02d", first); string(data) != want {
			t.Fatalf("round %d: %s holds %q, want the first object's %q", round, objs[first].Path, data, want)
		}
		if ds, ok := r.meta.ByPath(objs[first].Path); !ok || ds.ID != res[first].Dataset.ID {
			t.Fatalf("round %d: %s registered as %v, want the first object's dataset", round, objs[first].Path, ds.ID)
		}
	}
}

// batchWALFaultMidBatch: the disk starts refusing fsyncs part-way
// through a batch — some shards' notes and registrations are durable,
// the rest are not. Every object then either is registered or is gone.
func batchWALFaultMidBatch(t *testing.T) {
	objs := func() []*ingest.Object {
		return batchOf(16, func(i int) string { return fmt.Sprintf("/ddn/wf/%02d", i) })
	}
	// The fault points are the fsyncs the batch pays on a clean run.
	clean, counter, _ := replicatedParts(t, metadata.Options{Shards: 4}, "kit")
	for i, cr := range ingest.StoreBatch(clean.layer, clean.meta, objs()) {
		if cr.Err != nil {
			t.Fatalf("clean run: object %d: %v", i, cr.Err)
		}
	}
	paid := counter.totalSyncs()
	if paid == 0 {
		t.Fatal("the clean batch paid no fsync")
	}
	for failAfter := 1; failAfter <= paid; failAfter++ {
		r, counter, _ := replicatedParts(t, metadata.Options{Shards: 4}, "kit")
		counter.failAfter = failAfter
		objs := objs()
		failed := 0
		for i, cr := range ingest.StoreBatch(r.layer, r.meta, objs) {
			_, statErr := r.layer.Stat(objs[i].Path)
			_, registered := r.meta.ByPath(objs[i].Path)
			switch {
			case cr.Err == nil && (statErr != nil || !registered):
				t.Errorf("failAfter=%d: %s acknowledged but stored=%v registered=%v", failAfter, objs[i].Path, statErr == nil, registered)
			case cr.Err != nil && !errors.Is(statErr, adal.ErrNotFound):
				t.Errorf("failAfter=%d: %s failed (%v) but its bytes remain: %v", failAfter, objs[i].Path, cr.Err, statErr)
			}
			if cr.Err != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("failAfter=%d: a dead WAL failed no registration", failAfter)
		}
		noInvisibleData(t, r, "/ddn/wf")
	}
}
