package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/units"
)

// streamMax remembers how many streams were opened and the most bytes
// any one of them moved.
type streamMax struct{ opens, most atomic.Int64 }

func (m *streamMax) note(n int64) {
	for cur := m.most.Load(); n > cur && !m.most.CompareAndSwap(cur, n); cur = m.most.Load() {
	}
}

// patternFS serves one generated object (size bytes at every path, no
// two blocks alike, nothing held in memory) with the byte at corruptAt
// flipped when that is not negative, and measures every read stream.
type patternFS struct {
	*adal.FSBackend
	size, corruptAt int64
	reads           streamMax
}

func (f *patternFS) Open(string) (io.ReadCloser, error) {
	f.reads.opens.Add(1)
	return &patternReader{fs: f}, nil
}

type patternReader struct {
	fs  *patternFS
	off int64
}

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off == r.fs.size {
		return 0, io.EOF
	}
	n := min(int64(len(p)), r.fs.size-r.off, adal.ChainBlock-r.off%adal.ChainBlock)
	for i := range p[:n] {
		p[i] = byte(i)
	}
	if n >= 8 && r.off%adal.ChainBlock == 0 {
		binary.LittleEndian.PutUint64(p, uint64(r.off))
	}
	if c := r.fs.corruptAt - r.off; c >= 0 && c < n {
		p[c] ^= 0x10
	}
	r.off += n
	r.fs.reads.note(r.off)
	return int(n), nil
}

func (r *patternReader) Close() error { return nil }

// countingFS measures every write stream into an in-memory store.
type countingFS struct {
	*adal.FSBackend
	writes streamMax
}

func (f *countingFS) Create(path string) (io.WriteCloser, error) {
	w, err := f.FSBackend.Create(path)
	if err != nil {
		return nil, err
	}
	f.writes.opens.Add(1)
	return &countingWriter{WriteCloser: w, fs: f}, nil
}

type countingWriter struct {
	io.WriteCloser
	fs *countingFS
	n  int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.n += int64(n)
	w.fs.writes.note(w.n)
	return n, err
}

// TestCorruptBlockStopsCopyAndScrub: the only source of a 400-block
// object has a flipped byte in block 3. A copy of it writes at most
// four blocks, leaves no destination object and convicts the source;
// Engine.Verify — and every other pass the engine makes over that
// replica — reads at most four blocks of it.
func TestCorruptBlockStopsCopyAndScrub(t *testing.T) {
	const blocks, bad = 400, 3
	src := &patternFS{FSBackend: adal.NewMemFS("src"), size: blocks * adal.ChainBlock, corruptAt: -1}
	dst := &countingFS{FSBackend: adal.NewMemFS("dst")}
	r, _ := src.Open("/big")
	want, err := adal.Transfer(context.Background(), io.Discard, r, adal.Digest{})
	if err != nil || want.Blocks() != blocks || !want.Chained() {
		t.Fatalf("digest of the clean object: %d blocks, chained %v, err %v", want.Blocks(), want.Chained(), err)
	}
	src.corruptAt = bad*adal.ChainBlock + 4321
	src.reads = streamMax{}

	_, eng, cat := newFed(t, []*Site{NewSite("src", src, 0), NewSite("dst", dst, 1)}, Config{MinReplicas: 2, Retries: 1})
	cat.Add("/big", "src", want)

	eng.Ensure("/big")
	eng.Wait()
	const limit = (bad + 1) * adal.ChainBlock
	if n, most := dst.writes.opens.Load(), dst.writes.most.Load(); n == 0 || most > limit || most <= bad*adal.ChainBlock {
		t.Fatalf("%d copy streams, the longest wrote %d bytes: want it to stop inside (%d, %d]", n, most, bad*adal.ChainBlock, limit)
	}
	if _, err := dst.Stat("/big"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("the failed copy left a destination object (stat: %v)", err)
	}
	if st, _ := cat.Get("/big", "src"); st != Stale {
		t.Fatalf("the corrupt source is %v, want stale", st)
	}
	if st := eng.Stats(); st.Transfers != 0 || st.Failures == 0 {
		t.Fatalf("stats after the failed copy: %+v", st)
	}

	if n, err := eng.Verify("/big"); n != 0 || err != nil {
		t.Fatalf("Verify confirmed %d replicas (err %v), want none", n, err)
	}
	eng.Wait()
	if n, most := src.reads.opens.Load(), src.reads.most.Load(); n < 2 || most > limit {
		t.Fatalf("%d passes over the corrupt replica, the longest read %d bytes: want <= %d", n, most, limit)
	}
	if most := dst.writes.most.Load(); most > limit {
		t.Fatalf("a later copy wrote %d bytes, want <= %d", most, limit)
	}
}

// TestCreateAfterHomeSiteDiedMidWrite: a home site that dies under a
// write keeps what Close committed and the catalog never hears of it.
// Once the site is back that object is an orphan, not a reason to
// refuse the path: the retry replaces it. A second creator while the
// first still holds the path is refused.
func TestCreateAfterHomeSiteDiedMidWrite(t *testing.T) {
	fb, eng, cat, sites, _ := testFed(t, Config{})
	kit := sites[0]
	w, err := fb.Create("/x/obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Create("/x/obj"); !errors.Is(err, adal.ErrExists) {
		t.Fatalf("second creator of a path being written: %v, want ErrExists", err)
	}
	if _, err := w.Write([]byte("lost with the site")); err != nil {
		t.Fatal(err)
	}
	kit.SetDown(true)
	if err := w.Close(); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("close on a dead home site: %v, want ErrSiteDown", err)
	}
	kit.SetDown(false)
	if _, err := kit.Backend.Stat("/x/obj"); err != nil || cat.Known("/x/obj") {
		t.Fatalf("want an orphan on kit that the catalog does not know (stat: %v, known: %v)", err, cat.Known("/x/obj"))
	}

	data := []byte("the retry's bytes")
	writeObject(t, fb, "/x/obj", data)
	eng.Wait()
	if got := readAll(t, fb, "/x/obj"); !bytes.Equal(got, data) {
		t.Fatalf("read %q after the retry", got)
	}
	if n := cat.CountValid("/x/obj"); n != 2 {
		t.Fatalf("valid replicas after the retry = %d, want 2", n)
	}
}

// TestLateEnsureAfterRemoveSchedulesNothing: an Ensure that arrives
// after the object's removal — an asynchronous EventCreated, a rule
// action — finds no row and schedules nothing, so the path is free to
// be created again.
func TestLateEnsureAfterRemoveSchedulesNothing(t *testing.T) {
	fb, eng, cat, _, _ := testFed(t, Config{})
	writeObject(t, fb, "/x", []byte("short-lived"))
	eng.Wait()
	if err := fb.Remove("/x"); err != nil {
		t.Fatal(err)
	}
	eng.Ensure("/x")
	eng.Wait()
	if cat.Known("/x") {
		t.Fatalf("a late Ensure brought the removed path back: %v", cat.Replicas("/x"))
	}
	writeObject(t, fb, "/x", []byte("created again"))
}

// TestRemoveDuringCopyDoesNotResurrect: an object removed while a
// WAN-paced copy of it is in flight stays removed. The copy's commit
// is refused, the copy removes the bytes it wrote, and the path can be
// created again.
func TestRemoveDuringCopyDoesNotResurrect(t *testing.T) {
	wan := NewWAN(units.BytesPerSecond(64*units.MiB), time.Millisecond)
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wan.sleep = func(time.Duration) { once.Do(func() { close(reached); <-release }) }
	sites := []*Site{NewSite("kit", adal.NewMemFS("kit"), 0), NewSite("far", adal.NewMemFS("far"), 1)}
	fb, eng, cat := newFed(t, sites, Config{MinReplicas: 2, WAN: wan})

	writeObject(t, fb, "/y", bytes.Repeat([]byte("y"), 4096))
	select {
	case <-reached: // the copy to far has its destination open and waits on the link
	case <-time.After(10 * time.Second):
		t.Fatal("the copy to far never started")
	}
	if err := fb.Remove("/y"); err != nil {
		t.Fatal(err)
	}
	close(release)
	eng.Wait()
	if cat.Known("/y") {
		t.Fatalf("the copy in flight re-registered the removed path: %v", cat.Replicas("/y"))
	}
	for _, s := range sites {
		if _, err := s.Backend.Stat("/y"); !errors.Is(err, adal.ErrNotFound) {
			t.Fatalf("%s still holds the removed object (stat: %v)", s.Name, err)
		}
	}
	if st := eng.Stats(); st.Transfers != 0 {
		t.Fatalf("a refused copy counted as %d transfers", st.Transfers)
	}
	writeObject(t, fb, "/y", []byte("created again"))
}

// TestRecreateDuringCopyRefusesTheOldValid: an object removed and
// created again, with other bytes, while a WAN-paced copy of its first
// version is in flight. The old copy's Valid commit carries the digest
// it checked, which is not the new row's: the store refuses it and the
// copy removes the bytes it wrote, so the far site is never a valid
// holder of the old bytes, and the next Ensure gives it the new ones.
func TestRecreateDuringCopyRefusesTheOldValid(t *testing.T) {
	wan := NewWAN(units.BytesPerSecond(64*units.MiB), time.Millisecond)
	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wan.sleep = func(time.Duration) { once.Do(func() { close(reached); <-release }) }
	sites := []*Site{NewSite("kit", adal.NewMemFS("kit"), 0), NewSite("far", adal.NewMemFS("far"), 1)}
	fb, eng, cat := newFed(t, sites, Config{MinReplicas: 2, WAN: wan})

	old, fresh := bytes.Repeat([]byte("o"), 4096), bytes.Repeat([]byte("n"), 4096)
	writeObject(t, fb, "/y", old)
	select {
	case <-reached: // the copy to far has its destination open and waits on the link
	case <-time.After(10 * time.Second):
		t.Fatal("the copy to far never started")
	}
	if err := fb.Remove("/y"); err != nil {
		t.Fatal(err)
	}
	writeObject(t, fb, "/y", fresh)
	close(release)
	eng.Wait()
	if st, _ := cat.Get("/y", "far"); st == Valid {
		t.Fatalf("far is valid for the new row after a copy of the old bytes: %v", cat.Replicas("/y"))
	}
	if _, err := sites[1].Backend.Stat("/y"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("far still holds the refused copy (stat: %v)", err)
	}
	if st := eng.Stats(); st.Transfers != 0 {
		t.Fatalf("a refused copy counted as %d transfers", st.Transfers)
	}

	eng.Ensure("/y")
	eng.Wait()
	if st, _ := cat.Get("/y", "far"); st != Valid {
		t.Fatalf("far after a fresh Ensure: %v", cat.Replicas("/y"))
	}
	r, err := sites[1].Backend.Open("/y")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	r.Close()
	if !bytes.Equal(got, fresh) {
		t.Fatalf("far holds %q…, want the new bytes", got[:min(8, len(got))])
	}
}
