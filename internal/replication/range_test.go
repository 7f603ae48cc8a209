package replication

import (
	"bytes"
	"context"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/adal"
)

// offsetFS wraps a site backend and records, over all its readers, how
// many bytes were read and the lowest object offset a byte was read
// from. Its readers seek when the wrapped ones do, and keep their
// position through it.
type offsetFS struct {
	adal.Backend

	mu     sync.Mutex
	opens  int
	read   int64
	lowest int64
}

func newOffsetFS(b adal.Backend) *offsetFS { return &offsetFS{Backend: b, lowest: math.MaxInt64} }

func (f *offsetFS) reset() {
	f.mu.Lock()
	f.opens, f.read, f.lowest = 0, 0, math.MaxInt64
	f.mu.Unlock()
}

func (f *offsetFS) snapshot() (opens int, read, lowest int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens, f.read, f.lowest
}

func (f *offsetFS) Open(path string) (io.ReadCloser, error) {
	r, err := f.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.opens++
	f.mu.Unlock()
	return &offsetReader{fs: f, r: r}, nil
}

type offsetReader struct {
	fs  *offsetFS
	r   io.ReadCloser
	pos int64
}

func (o *offsetReader) Read(p []byte) (int, error) {
	n, err := o.r.Read(p)
	if n > 0 {
		o.fs.mu.Lock()
		o.fs.read += int64(n)
		o.fs.lowest = min(o.fs.lowest, o.pos)
		o.fs.mu.Unlock()
		o.pos += int64(n)
	}
	return n, err
}

func (o *offsetReader) Seek(off int64, whence int) (int64, error) {
	pos, err := o.r.(io.Seeker).Seek(off, whence)
	if err == nil {
		o.pos = pos
	}
	return pos, err
}

func (o *offsetReader) Close() error { return o.r.Close() }

// TestRangedReadStartsAndResumesAtItsOffset: a ranged federated read
// touches no byte of any site before its offset — not at open, and not
// when the serving site dies mid-range and the next one takes over at
// the resume offset — and ends at its limit. The catalog carries the
// checkpoint chain from the home write through transfers and
// re-verifies.
func TestRangedReadStartsAndResumesAtItsOffset(t *testing.T) {
	fed, track := testFedTracked(t)
	fb, eng, cat, sites := fed.fb, fed.eng, fed.cat, fed.sites
	data := make([]byte, 5*adal.ChainBlock+99)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	w, err := fb.Create("/exp/vol")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.(*adal.ChecksumWriter); !ok {
		t.Fatalf("federated Create hands out %T: WriteChecksummed would hash the stream a second time", w)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	eng.Wait()
	if _, err := eng.Verify("/exp/vol"); err != nil {
		t.Fatal(err)
	}
	want, _ := cat.Digest("/exp/vol")
	if !want.Chained() || want.Blocks() != 6 {
		t.Fatalf("catalog digest %d blocks, chained %v", want.Blocks(), want.Chained())
	}
	for _, rep := range cat.Replicas("/exp/vol") {
		if rep.State != Valid || !bytes.Equal(rep.Chain, want.Chain) {
			t.Fatalf("replica on %s: state %s, chain of %d bytes, want the home copy's %d", rep.Site, rep.State, len(rep.Chain), len(want.Chain))
		}
	}
	for j := int64(0); j < want.Blocks(); j++ {
		if !want.VerifyBlock(j, data[j*adal.ChainBlock:min(int64(len(data)), (j+1)*adal.ChainBlock)]) {
			t.Fatalf("block %d does not verify against the catalog's chain", j)
		}
	}
	for _, f := range track {
		f.reset()
	}

	const off, n, firstPart = 3*adal.ChainBlock + 11, adal.ChainBlock + 500, 1000
	r, err := fb.OpenRange(context.Background(), "/exp/vol", off, n)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	head := make([]byte, firstPart)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	first := nearestValid(t, cat, sites, "/exp/vol")
	first.SetDown(true)
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("mid-range failover: %v", err)
	}
	if got := append(head, rest...); !bytes.Equal(got, data[off:off+n]) {
		t.Fatalf("ranged read returned %d bytes, want %d, or other bytes", len(got), n)
	}
	if fb.FedStats().MidStream != 1 {
		t.Fatalf("mid-stream failovers = %d, want 1", fb.FedStats().MidStream)
	}
	var total int64
	for i, f := range track {
		opens, read, lowest := f.snapshot()
		total += read
		switch {
		case sites[i] == first:
			if opens != 1 || lowest != off {
				t.Fatalf("first site: %d opens, lowest offset read %d, want 1 open starting at %d", opens, lowest, off)
			}
		case opens > 0:
			if lowest < off+firstPart {
				t.Fatalf("resume on %s re-read from offset %d, before the resume offset %d", sites[i].Name, lowest, off+firstPart)
			}
		}
	}
	if total != n {
		t.Fatalf("sites delivered %d bytes for a %d-byte range", total, n)
	}
}

type trackedFed struct {
	fb    *FederatedBackend
	eng   *Engine
	cat   *Catalog
	sites []*Site
}

// testFedTracked is testFed at MinReplicas 3 with every site's backend
// behind an offsetFS.
func testFedTracked(t *testing.T) (trackedFed, []*offsetFS) {
	t.Helper()
	var track []*offsetFS
	var sites []*Site
	for i, name := range []string{"kit", "gridka", "desy"} {
		f := newOffsetFS(adal.NewMemFS(name))
		track = append(track, f)
		sites = append(sites, NewSite(name, f, i))
	}
	cat := NewCatalog(CatalogConfig{})
	eng, err := NewEngine(Config{Catalog: cat, Sites: sites, MinReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return trackedFed{NewFederated("fed", eng), eng, cat, sites}, track
}
