package tiering

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/ingest"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
	"repro/internal/units"
)

// countingBackend counts the objects opened on a backend and the bytes
// read from them.
type countingBackend struct {
	adal.Backend
	opens, bytes atomic.Int64
}

func (c *countingBackend) Open(path string) (io.ReadCloser, error) {
	c.opens.Add(1)
	r, err := c.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	return &countedReader{r, &c.bytes}, nil
}

type countedReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (r *countedReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}

// TestRestartOpensNoHotObject: a tier over 1 000 objects, 500 of them
// small enough to have been sniffed for a stub, opens from its rows
// without opening one of them.
func TestRestartOpensNoHotObject(t *testing.T) {
	meta := metadata.NewStore()
	hot, cold := adal.NewMemFS("hot"), adal.NewMemFS("cold")
	tier, err := New("tier", hot, cold, Config{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		size := 8 * 1024
		if i%2 == 0 {
			size = 100 + i
		}
		writeObj(t, tier, fmt.Sprintf("/r/%04d", i), payload(byte(i), size))
	}
	tier.Close()

	counted := &countingBackend{Backend: hot}
	again, err := New("again", counted, cold, Config{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if n := counted.opens.Load(); n != 0 {
		t.Fatalf("opening the tier opened %d hot objects, want 0", n)
	}
	if st := again.Stats(); st.Files != 1000 || st.Resident != 1000 {
		t.Fatalf("reopened tier: %+v", st)
	}
}

// rowView is what a reopen must keep of an object.
type rowView struct {
	State   State
	Size    units.Bytes
	ModTime time.Time
	Pinned  bool
}

func rowViews(t *testing.T, meta *metadata.Store, tier *TierBackend) map[string]rowView {
	t.Helper()
	out := make(map[string]rowView)
	for p, row := range meta.Placements("") {
		info, err := tier.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		st, _ := tier.State(p)
		out[p] = rowView{st, info.Size, info.ModTime, row.Pinned}
	}
	return out
}

// TestReopenKeepsEveryRow: on a durable store, a resident, a
// premigrated, a migrated and a pinned object keep their state, size,
// modification time and pin across a close and reopen — replayed from
// the log, and installed from a compacted snapshot.
func TestReopenKeepsEveryRow(t *testing.T) {
	mem := durafs.NewMem()
	hot, cold := adal.NewMemFS("hot"), adal.NewMemFS("cold")
	clock := newFakeClock()
	open := func() (*metadata.Store, *TierBackend) {
		t.Helper()
		meta, err := metadata.Open(metadata.Options{WALDir: "/wal", FS: mem})
		if err != nil {
			t.Fatal(err)
		}
		tier, err := New("tier", hot, cold, Config{Meta: meta, Clock: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		return meta, tier
	}
	meta, tier := open()
	for i, p := range []string{"/o/resident", "/o/premigrated", "/o/migrated", "/o/pinned"} {
		writeObj(t, tier, p, payload(byte(i), 3000+i))
		clock.Advance(time.Minute)
	}
	if err := tier.Premigrate("/o/premigrated"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Migrate("/o/migrated"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Pin("/o/pinned"); err != nil {
		t.Fatal(err)
	}
	want := rowViews(t, meta, tier)
	tier.Close()
	meta.Close()

	for _, route := range []string{"replay", "snapshot"} {
		meta, tier := open()
		st := meta.RecoveryStats()
		if (route == "replay") != (st.SnapshotsLoaded == 0) || (route == "snapshot") != (st.RecordsReplayed == 0) {
			t.Fatalf("%s: recovery took another route: %+v", route, st)
		}
		got := rowViews(t, meta, tier)
		if len(got) != len(want) {
			t.Fatalf("%s: reopened %v, want %v", route, got, want)
		}
		for p, w := range want {
			g := got[p]
			if g.State != w.State || g.Size != w.Size || !g.ModTime.Equal(w.ModTime) || g.Pinned != w.Pinned {
				t.Fatalf("%s: %s reopened as %+v, want %+v", route, p, g, w)
			}
		}
		if err := tier.Migrate("/o/pinned"); !errors.Is(err, ErrPinned) {
			t.Fatalf("%s: migrating the pinned object after a reopen: %v, want ErrPinned", route, err)
		}
		if route == "replay" {
			if err := meta.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		tier.Close()
		meta.Close()
	}
}

// reopen builds a second tier over the first one's store and tiers.
func reopen(t *testing.T, meta *metadata.Store, hot, cold adal.Backend) *TierBackend {
	t.Helper()
	tier, err := New("again", hot, cold, Config{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tier.Close)
	return tier
}

// TestRecalledObjectReopensPremigrated: a recalled object has bytes on
// both tiers, and a reopened tier knows it, so removing it clears the
// cold copy too.
func TestRecalledObjectReopensPremigrated(t *testing.T) {
	meta := metadata.NewStore()
	tier, hot, cold := newTier(t, Config{Meta: meta})
	writeObj(t, tier, "/d/x", payload('x', 9000))
	if err := tier.Migrate("/d/x"); err != nil {
		t.Fatal(err)
	}
	if err := tier.Recall("/d/x"); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	again := reopen(t, meta, hot, cold)
	if st, _ := again.State("/d/x"); st != Premigrated {
		t.Fatalf("a recalled object reopens as %v, want premigrated", st)
	}
	if err := again.Remove("/d/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Stat("/d/x"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("the cold copy outlived the removal: %v", err)
	}
}

// TestStubLookingObjectStaysResident: a user object whose bytes are
// what an older build wrote in place of a migrated object's is only
// bytes: it reopens resident and reads back as stored.
func TestStubLookingObjectStaysResident(t *testing.T) {
	meta := metadata.NewStore()
	tier, hot, cold := newTier(t, Config{Meta: meta})
	data := []byte("LSDF-STUB v1\nsize: 5\nsha256: 2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824\nmodtime: 2011-05-16T09:00:00Z\n")
	writeObj(t, tier, "/d/y", data)
	tier.Close()
	again := reopen(t, meta, hot, cold)
	if st, _ := again.State("/d/y"); st != Resident {
		t.Fatalf("the object reopens as %v, want resident", st)
	}
	if got := readObj(t, again, "/d/y"); !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

// TestCorruptedAtRestNeverMigrates: a resident object whose hot bytes
// changed while the tier was closed is checked against the digest its
// row kept from the write: the migration fails, nothing reaches the
// cold tier, and the object stays resident.
func TestCorruptedAtRestNeverMigrates(t *testing.T) {
	meta := metadata.NewStore()
	tier, hot, cold := newTier(t, Config{Meta: meta})
	data := payload('c', 9000)
	writeObj(t, tier, "/d/z", data)
	tier.Close()
	bad := bytes.Clone(data)
	bad[4500] ^= 1
	if err := hot.Remove("/d/z"); err != nil {
		t.Fatal(err)
	}
	writeObj(t, hot, "/d/z", bad)

	again := reopen(t, meta, hot, cold)
	if err := again.Migrate("/d/z"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("migrating the corrupted object: %v, want a checksum mismatch", err)
	}
	if st, _ := again.State("/d/z"); st != Resident {
		t.Fatalf("state after the refused migration = %v, want resident", st)
	}
	if _, err := cold.Stat("/d/z"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("the corrupted bytes reached the cold tier: %v", err)
	}
}

// walSyncs counts the fsyncs of the files a store appends to: its log.
type walSyncs struct {
	durafs.FS
	n atomic.Int64
}

func (w *walSyncs) OpenAppend(name string) (durafs.File, error) {
	f, err := w.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return syncCounted{f, &w.n}, nil
}

type syncCounted struct {
	durafs.File
	n *atomic.Int64
}

func (f syncCounted) Sync() error {
	f.n.Add(1)
	return f.File.Sync()
}

// TestTierRowsRideTheRegistration: a tier's rows are staged, so storing
// into a tier pays the WAL fsyncs that storing into a plain object store
// does — one per registered batch, whether a batch of one (a PUT) or
// of eight.
func TestTierRowsRideTheRegistration(t *testing.T) {
	for _, tiered := range []bool{false, true} {
		counter := &walSyncs{FS: durafs.NewMem()}
		meta, err := metadata.Open(metadata.Options{WALDir: "/wal", FS: counter})
		if err != nil {
			t.Fatal(err)
		}
		var root adal.Backend = adal.NewMemFS("plain")
		if tiered {
			tier, err := New("tier", adal.NewMemFS("hot"), adal.NewMemFS("cold"), Config{Meta: meta})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tier.Close)
			root = tier
		}
		layer := adal.NewLayer()
		if err := layer.Mount("/", root); err != nil {
			t.Fatal(err)
		}
		n := 0
		batch := func(size int) int64 {
			t.Helper()
			objs := make([]*ingest.Object, size)
			for i := range objs {
				n++
				objs[i] = &ingest.Object{Project: "p", Path: fmt.Sprintf("/data/%03d", n), Data: strings.NewReader(fmt.Sprint("object ", n))}
			}
			before := counter.n.Load()
			for _, res := range ingest.StoreBatch(layer, meta, objs) {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
			}
			return counter.n.Load() - before
		}
		for i := 0; i < 3; i++ {
			if got := batch(1); got != 1 {
				t.Fatalf("tiered=%v: a one-object store paid %d WAL fsyncs, want 1", tiered, got)
			}
		}
		if got := batch(8); got != 1 {
			t.Fatalf("tiered=%v: an eight-object batch paid %d WAL fsyncs, want 1", tiered, got)
		}
		meta.Close()
	}
}

// crashRig is a tier whose hot and cold tiers and whose store's journal
// share one disk.
type crashRig struct {
	meta *metadata.Store
	tier *TierBackend
	cold adal.Backend
	hot  adal.Backend
}

func openCrashRig(fs durafs.FS) (*crashRig, error) {
	meta, err := metadata.Open(metadata.Options{Shards: 2, SnapshotEvery: 4, WALDir: "/wal", FS: fs})
	if err != nil {
		return nil, err
	}
	r := &crashRig{meta: meta, hot: adal.NewFS("hot", fs, "/hot"), cold: adal.NewFS("cold", fs, "/cold")}
	if r.tier, err = New("tier", r.hot, r.cold, Config{Meta: meta}); err != nil {
		meta.Close()
		return nil, err
	}
	return r, nil
}

func (r *crashRig) close() {
	r.tier.Close()
	r.meta.Close()
}

// crashAcks is what a run acknowledged: the objects it stored (and has
// not since removed or begun to remove) and the objects it removed.
type crashAcks struct {
	stored  map[string][]byte
	removed map[string]bool
}

// crashWorkload stores five objects — one over a block long — then
// premigrates, migrates, recalls, pins and removes them: a removal from
// each state. A store is acknowledged once its Close and a Sync of the
// store — the registration every front door makes after it — return.
func (r *crashRig) crashWorkload() crashAcks {
	acks := crashAcks{stored: map[string][]byte{}, removed: map[string]bool{}}
	sizes := map[string]int{"/s/a": 3000, "/s/b": adal.ChainBlock + 700, "/s/c": 5000, "/s/d": 2000, "/s/e": 1000}
	for _, p := range []string{"/s/a", "/s/b", "/s/c", "/s/d", "/s/e"} {
		data := payload(p[3], sizes[p])
		w, err := r.tier.Create(p)
		if err != nil {
			continue
		}
		for rest := data; len(rest) > 0; rest = rest[min(len(rest), 1500):] {
			w.Write(rest[:min(len(rest), 1500)])
		}
		if w.Close() == nil && r.meta.Sync() == nil {
			acks.stored[p] = data
		}
	}
	r.tier.Premigrate("/s/a")
	r.tier.Migrate("/s/b")
	r.tier.Migrate("/s/c")
	r.tier.Recall("/s/c")
	r.tier.Migrate("/s/e")
	r.tier.Pin("/s/a")
	for _, p := range []string{"/s/c", "/s/d", "/s/e"} { // premigrated, resident, migrated
		if acks.stored[p] == nil {
			continue
		}
		delete(acks.stored, p) // in flight: either outcome is legal
		if r.tier.Remove(p) == nil {
			acks.removed[p] = true
		}
	}
	return acks
}

// checkCrashRecovery reopens the rig on what the disk holds and checks
// the tier's crash contract: every acknowledged store reads back
// byte-identical and matching its journaled digest; no acknowledged
// removal is listed or leaves bytes on either tier; every object listed
// reads back whole and matching its row's digest; removing it then
// leaves neither tier holding bytes at its path — whatever copy the
// crash cut off from its row; and every path can be stored again, over
// whatever orphan a crashed store left.
func checkCrashRecovery(t *testing.T, at string, mem *durafs.MemFS, acks crashAcks) {
	t.Helper()
	r, err := openCrashRig(mem)
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", at, err)
	}
	defer r.close()
	rows := r.meta.Placements("")
	for p, data := range acks.stored {
		if got := readObj(t, r.tier, p); !bytes.Equal(got, data) {
			t.Fatalf("%s: acknowledged %s reads back %d bytes, not what was stored", at, p, len(got))
		}
		if d := rows[p].Digest; d.Size != units.Bytes(len(data)) || d.Sum != digestOf(data).Sum {
			t.Fatalf("%s: acknowledged %s has journaled digest %+v", at, p, d)
		}
	}
	for p := range acks.removed {
		if _, ok := r.tier.State(p); ok {
			t.Fatalf("%s: removed %s is back", at, p)
		}
		for _, b := range []adal.Backend{r.hot, r.cold} {
			if _, err := b.Stat(p); !errors.Is(err, adal.ErrNotFound) {
				t.Fatalf("%s: removed %s left bytes on %s: %v", at, p, b.Name(), err)
			}
		}
	}
	infos, err := r.tier.List("/")
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		rc, err := r.tier.Open(info.Path)
		if err != nil {
			t.Fatalf("%s: listed %s does not open: %v", at, info.Path, err)
		}
		_, err = adal.Transfer(context.Background(), io.Discard, rc, rows[info.Path].Digest)
		rc.Close()
		if err != nil {
			t.Fatalf("%s: listed %s is served with bytes off its digest: %v", at, info.Path, err)
		}
		if err := r.tier.Remove(info.Path); err != nil {
			t.Fatalf("%s: removing %s after the recovery: %v", at, info.Path, err)
		}
		for _, b := range []adal.Backend{r.hot, r.cold} {
			if _, err := b.Stat(info.Path); !errors.Is(err, adal.ErrNotFound) {
				t.Fatalf("%s: removing %s after the recovery left bytes on %s: %v", at, info.Path, b.Name(), err)
			}
		}
	}
	for _, p := range []string{"/s/a", "/s/b", "/s/c", "/s/d", "/s/e"} {
		writeObj(t, r.tier, p, []byte("again"))
	}
}

func digestOf(data []byte) adal.Digest {
	h := adal.NewChainHasher()
	h.Write(data)
	return h.Digest()
}

// TestTierCrashPointSweep crashes the workload above, with hot, cold
// and the journal on one disk that tears unsynced writes, at every I/O
// operation it performs, and checks the crash contract after each.
func TestTierCrashPointSweep(t *testing.T) {
	probe := durafs.NewFault(durafs.NewMem(), nil)
	r, err := openCrashRig(probe)
	if err != nil {
		t.Fatal(err)
	}
	opened := probe.Ops()
	if acks := r.crashWorkload(); len(acks.stored) != 2 || len(acks.removed) != 3 {
		t.Fatalf("fault-free run acknowledged %+v", acks)
	}
	r.close()
	total := probe.Ops() - opened
	t.Logf("sweeping %d crash points", total)
	for crashAt := int64(1); crashAt <= total; crashAt++ {
		mem := durafs.NewMem()
		fault := durafs.NewFault(mem, rand.New(rand.NewSource(crashAt)))
		r, err := openCrashRig(fault)
		if err != nil {
			t.Fatal(err)
		}
		fault.CrashAfterOps(crashAt)
		acks := r.crashWorkload()
		r.close()
		if !fault.Crashed() {
			mem.Crash(nil)
		}
		checkCrashRecovery(t, fmt.Sprintf("crash at op %d of %d", crashAt, total), mem, acks)
	}
}
