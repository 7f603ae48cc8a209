package replication

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/ingest"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
)

// What a crash may cost the replica notes of a durable store: an
// acknowledged object keeps its dataset and its Valid home note, no
// transfer in flight (Pending, Copying) is ever recovered, and a copy
// whose Valid note was lost is simply absent — recovery believes less
// than was true, never more.

const crashObjects = 16

func crashPath(i int) string { return fmt.Sprintf("/sites/crash/%02d", i) }

// crashRig is a two-site federation, near and far, mounted at /sites
// with MinReplicas 2, whose catalog notes into a durable store on fs.
type crashRig struct {
	meta   *metadata.Store
	engine *Engine
	layer  *adal.Layer
}

func crashOptions(fs durafs.FS) metadata.Options {
	return metadata.Options{Shards: 2, SnapshotEvery: 4, WALDir: "/wal", FS: fs}
}

func openCrashRig(t *testing.T, fs durafs.FS, far adal.Backend) *crashRig {
	t.Helper()
	meta, err := metadata.Open(crashOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(Config{
		Catalog:     NewCatalog(CatalogConfig{Meta: meta, MountPrefix: "/sites"}),
		Sites:       []*Site{NewSite("near", adal.NewMemFS("near"), 0), NewSite("far", far, 1)},
		Meta:        meta,
		MountPrefix: "/sites",
	})
	if err != nil {
		t.Fatal(err)
	}
	layer := adal.NewLayer()
	if err := layer.Mount("/sites", NewFederated("sites", engine)); err != nil {
		t.Fatal(err)
	}
	return &crashRig{meta: meta, engine: engine, layer: layer}
}

// ingest stores and registers the sixteen objects in one batch and
// returns the paths it acknowledged.
func (r *crashRig) ingest() (acked []string) {
	objs := make([]*ingest.Object, crashObjects)
	for i := range objs {
		objs[i] = &ingest.Object{Project: "p", Path: crashPath(i), Data: strings.NewReader(fmt.Sprintf("payload %02d", i))}
	}
	for i, res := range ingest.StoreBatch(r.layer, r.meta, objs) {
		if res.Err == nil {
			acked = append(acked, objs[i].Path)
		}
	}
	return acked
}

func (r *crashRig) close() {
	r.engine.Close()
	r.meta.Close()
}

// checkRecovered reopens the store from what the disk holds after the
// crash and checks the notes' contract. It returns the recovered store.
func checkRecovered(t *testing.T, at string, mem *durafs.MemFS, acked []string) *metadata.Store {
	t.Helper()
	re, err := metadata.Open(crashOptions(mem))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", at, err)
	}
	t.Cleanup(re.Close)
	for _, p := range acked {
		if _, ok := re.ByPath(p); !ok {
			t.Errorf("%s: lost acknowledged dataset %s", at, p)
		}
		if st := re.Replicas(p)["near"]; st != "valid" {
			t.Errorf("%s: acknowledged %s recovered its home note as %q, want valid", at, p, st)
		}
	}
	for i := 0; i < crashObjects; i++ {
		for site, st := range re.Replicas(crashPath(i)) {
			if st == "pending" || st == "copying" {
				t.Errorf("%s: %s recovered a transfer note: %s is %s", at, crashPath(i), site, st)
			}
			if site == "far" && st != "valid" {
				t.Errorf("%s: %s recovered the second site as %q, want absent or valid", at, crashPath(i), st)
			}
		}
	}
	return re
}

// TestIngestCrashPointSweep crashes a sixteen-object StoreBatch into
// the federation, followed by Engine.Wait and Close, at every I/O
// operation the run performs, on a disk that tears unsynced writes.
func TestIngestCrashPointSweep(t *testing.T) {
	probe := durafs.NewFault(durafs.NewMem(), nil)
	r := openCrashRig(t, probe, adal.NewMemFS("far"))
	opened := probe.Ops()
	if acked := r.ingest(); len(acked) != crashObjects {
		t.Fatalf("fault-free run acknowledged %d of %d objects", len(acked), crashObjects)
	}
	r.engine.Wait()
	r.close()
	total := probe.Ops() - opened
	if total < 4 {
		t.Fatalf("workload too small: %d I/O ops", total)
	}
	// The copies interleave with the batch, so a run's op count varies:
	// sweep past the probe's, where a run may end before its crash point
	// and then loses power after Close instead.
	for crashAt := int64(1); crashAt <= 2*total; crashAt++ {
		mem := durafs.NewMem()
		fault := durafs.NewFault(mem, rand.New(rand.NewSource(crashAt)))
		r := openCrashRig(t, fault, adal.NewMemFS("far"))
		fault.CrashAfterOps(crashAt)
		acked := r.ingest()
		r.engine.Wait()
		r.close()
		if !fault.Crashed() {
			mem.Crash(nil)
		}
		checkRecovered(t, fmt.Sprintf("crashAt=%d (run to completion: %d ops)", crashAt, total), mem, acked)
	}
}

// gatedFS holds every write to it until open is closed.
type gatedFS struct {
	adal.Backend
	open chan struct{}
}

func (g *gatedFS) Create(path string) (io.WriteCloser, error) {
	w, err := g.Backend.Create(path)
	if err != nil {
		return nil, err
	}
	return gatedFSWriter{w, g.open}, nil
}

type gatedFSWriter struct {
	io.WriteCloser
	open chan struct{}
}

func (w gatedFSWriter) Write(p []byte) (int, error) {
	<-w.open
	return w.WriteCloser.Write(p)
}

// TestCrashBetweenCopyingAndValid: the machine dies while copies to the
// second site are Copying. The acknowledged batch recovers with its
// home notes, and the second site has no entry at all — the copy is
// re-queued by the next Ensure, never served from.
func TestCrashBetweenCopyingAndValid(t *testing.T) {
	mem := durafs.NewMem()
	fault := durafs.NewFault(mem, rand.New(rand.NewSource(1)))
	far := &gatedFS{Backend: adal.NewMemFS("far"), open: make(chan struct{})}
	r := openCrashRig(t, fault, far)
	copying := make(chan string, crashObjects)
	r.meta.Subscribe(func(ev metadata.Event) {
		if ev.Type == metadata.EventReplica && ev.Site == "far" && ev.Placement == "copying" {
			select {
			case copying <- ev.Dataset.Path:
			default:
			}
		}
	})
	acked := r.ingest()
	if len(acked) != crashObjects {
		t.Fatalf("acknowledged %d of %d objects", len(acked), crashObjects)
	}
	var inFlight string
	select {
	case inFlight = <-copying:
	case <-time.After(10 * time.Second):
		t.Fatal("no copy to far reached Copying")
	}
	if st := r.meta.Replicas(inFlight)["far"]; st != "" {
		t.Fatalf("the store's table holds a transfer: far is %q for %s", st, inFlight)
	}
	fault.CrashAfterOps(1) // the next I/O is the crash
	close(far.open)
	r.engine.Wait()
	r.close()

	re := checkRecovered(t, "crash while Copying", mem, acked)
	for i := 0; i < crashObjects; i++ {
		if st, ok := re.Replicas(crashPath(i))["far"]; ok {
			t.Errorf("%s: far recovered as %q, want no entry (copying at the crash: %s)", crashPath(i), st, inFlight)
		}
	}
}
