package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/adal"
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
	*adal.MemFS
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

// countingFS measures every write stream into a MemFS.
type countingFS struct {
	*adal.MemFS
	writes streamMax
}

func (f *countingFS) Create(path string) (io.WriteCloser, error) {
	w, err := f.MemFS.Create(path)
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
	src := &patternFS{MemFS: adal.NewMemFS("src"), size: blocks * adal.ChainBlock, corruptAt: -1}
	dst := &countingFS{MemFS: adal.NewMemFS("dst")}
	r, _ := src.Open("/big")
	want, err := adal.Transfer(context.Background(), io.Discard, r, adal.Digest{})
	if err != nil || want.Blocks() != blocks || !want.Chained() {
		t.Fatalf("digest of the clean object: %d blocks, chained %v, err %v", want.Blocks(), want.Chained(), err)
	}
	src.corruptAt = bad*adal.ChainBlock + 4321
	src.reads = streamMax{}

	cat := NewCatalog(CatalogConfig{})
	eng, err := NewEngine(Config{
		Catalog: cat, Sites: []*Site{NewSite("src", src, 0), NewSite("dst", dst, 1)},
		MinReplicas: 2, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cat.Set("/big", validReplica("src", want))

	eng.Ensure("/big")
	eng.Wait()
	const limit = (bad + 1) * adal.ChainBlock
	if n, most := dst.writes.opens.Load(), dst.writes.most.Load(); n == 0 || most > limit || most <= bad*adal.ChainBlock {
		t.Fatalf("%d copy streams, the longest wrote %d bytes: want it to stop inside (%d, %d]", n, most, bad*adal.ChainBlock, limit)
	}
	if _, err := dst.Stat("/big"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("the failed copy left a destination object (stat: %v)", err)
	}
	if rep, _ := cat.Get("/big", "src"); rep.State != Stale {
		t.Fatalf("the corrupt source is %v, want stale", rep.State)
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
