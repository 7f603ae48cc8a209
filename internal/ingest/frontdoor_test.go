package ingest_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/adal"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/ingest"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
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

// syncCountFS counts WAL fsyncs on their way to the wrapped FS.
type syncCountFS struct {
	durafs.FS
	syncs atomic.Int64
}

func (c *syncCountFS) OpenAppend(name string) (durafs.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &syncCountFile{File: f, fs: c}, nil
}

type syncCountFile struct {
	durafs.File
	fs *syncCountFS
}

func (f *syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
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
		counter := &syncCountFS{FS: fault}
		opts.WALDir, opts.FS = "wal", counter
		r.breakWAL = func() { fault.FailSyncs(1 << 20) }
		defer func() { // after Open: its own syncs are not ingest's
			base := counter.syncs.Load()
			r.walCommits = func() int { return int(counter.syncs.Load() - base) }
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
}
