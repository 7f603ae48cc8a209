package readcache

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/replication"
	"repro/internal/units"
)

// oldSpacing is the checkpoint spacing of the digests, and the block of
// the disk-tier files, that builds before the 64 KiB block wrote.
const oldSpacing = 256 << 10

// spacedDigest is data's digest with checkpoints every spacing bytes,
// taken the way adal.ChainHasher takes them: the SHA-256 chaining value
// (bytes 4–36 of crypto/sha256's marshalled state) at every boundary
// strictly inside the object.
func spacedDigest(data []byte, spacing int) adal.Digest {
	h := sha256.New()
	var chain []byte
	for off := 0; off < len(data); off += spacing {
		h.Write(data[off:min(off+spacing, len(data))])
		if off+spacing < len(data) {
			st, _ := h.(encoding.BinaryMarshaler).MarshalBinary()
			chain = append(chain, st[4:4+sha256.Size]...)
		}
	}
	return adal.Digest{Size: units.Bytes(len(data)), Sum: hex.EncodeToString(h.Sum(nil)), Chain: chain}
}

func seeded(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestDiskTierIgnoresOtherSpacing: block files cut at 256 KiB, as a
// restarted state directory of an older build holds them, are stray at
// this spacing. The 320 KiB object's old block 1 holds its bytes
// 256–320 KiB and is 64 KiB long — the length of this spacing's block 1,
// bytes 64–128 KiB — so re-admitted by index it would be served as
// those. No byte of any of them may be served, and each is removed.
func TestDiskTierIgnoresOtherSpacing(t *testing.T) {
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	disk := adal.NewMemFS("cachedisk")
	vol, tiny := seeded(1, 5*blockSize), seeded(2, 1000)
	writeBackend(t, inner, "/d/vol", vol)
	writeBackend(t, inner, "/d/tiny", tiny)
	for _, f := range []struct {
		path string
		idx  int
		data []byte
	}{{"/d/vol", 0, vol[:oldSpacing]}, {"/d/vol", 1, vol[oldSpacing:]}, {"/d/tiny", 0, tiny}} {
		writeBackend(t, disk, fmt.Sprintf("%s#%d", f.path, f.idx), f.data)
	}

	c := New(inner, Config{Disk: disk, DiskBudget: 64 * blockSize})
	defer c.Close()
	if infos, _ := disk.List("/"); len(infos) != 0 || len(c.Entries()) != 0 {
		t.Fatalf("recovery kept %d block files of another spacing, admitting %+v", len(infos), c.Entries())
	}
	if got := readRange(t, c, "/d/vol", blockSize, blockSize); !bytes.Equal(got, vol[blockSize:2*blockSize]) {
		t.Fatal("block 1 served bytes other than the object's 64–128 KiB")
	}
	if got := readRange(t, c, "/d/tiny", 0, -1); !bytes.Equal(got, tiny) {
		t.Fatal("wrong bytes for the one-block object")
	}
	if st := c.Stats(); st.DiskHits != 0 || st.FillBytes != blockSize+1000 {
		t.Fatalf("served %d disk hits and filled %d bytes; want every byte from the inner backend", st.DiskHits, st.FillBytes)
	}
}

// TestChainAtAnOlderSpacingIsDerived: a replica row whose digest carries
// the 256 KiB-spaced chain older builds journaled cannot vouch for one
// 64 KiB block. An admissible object is read whole once, its sum
// checked and its chain derived in that pass, and later ranges are hits
// on verified blocks, a lost block refetched alone; a copy with one
// byte flipped is served as a direct read would serve it but never
// cached; an object too large to admit whole bypasses the cache.
func TestChainAtAnOlderSpacingIsDerived(t *testing.T) {
	site := adal.NewMemFS("kit")
	meta := metadata.NewStore()
	eng, err := replication.NewEngine(replication.Config{
		Meta: meta, Sites: []*replication.Site{replication.NewSite("kit", site, 0)}, MinReplicas: 1, MountPrefix: "/sites",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Memory admits 8 blocks: the 5-block objects whole, not the 12-block one.
	c := New(replication.NewFederated("fed", eng), Config{Memory: 32 * blockSize, Meta: meta, MountPrefix: "/sites"})
	defer c.Close()
	put := func(path string, data, stored []byte) {
		d := spacedDigest(data, oldSpacing)
		if len(d.Chain) == 0 || d.Chained() {
			t.Fatalf("%s: the fixture's chain must be a non-empty one at another spacing", path)
		}
		writeBackend(t, site, path, stored)
		meta.AddReplica("/sites"+path, "kit", d)
	}
	vol, bad, huge := seeded(3, 5*blockSize), seeded(4, 5*blockSize), seeded(5, 12*blockSize)
	h := adal.NewChainHasher()
	h.Write(vol)
	if got, want := spacedDigest(vol, blockSize), h.Digest(); got.Sum != want.Sum || !bytes.Equal(got.Chain, want.Chain) {
		t.Fatal("the fixture does not take a chain the way adal.ChainHasher does")
	}
	flipped := bytes.Clone(bad)
	flipped[3*blockSize+5] ^= 1
	put("/d/vol", vol, vol)
	put("/d/bad", bad, flipped)
	put("/d/huge", huge, huge)

	if got := readRange(t, c, "/d/vol", blockSize+7, 100); !bytes.Equal(got, vol[blockSize+7:blockSize+107]) {
		t.Fatal("wrong bytes on the first miss")
	}
	if st := c.Stats(); st.Fills != 1 || st.FillBytes != 5*blockSize {
		t.Fatalf("first miss filled %d bytes in %d stream(s), want the object whole once", st.FillBytes, st.Fills)
	}
	for j := int64(0); j < 5; j++ {
		if got := readRange(t, c, "/d/vol", j*blockSize, blockSize); !bytes.Equal(got, vol[j*blockSize:(j+1)*blockSize]) {
			t.Fatalf("wrong bytes for block %d", j)
		}
	}
	if st := c.Stats(); st.MemHits != 5 || st.FillBytes != 5*blockSize {
		t.Fatalf("later ranges: %d hits, %d bytes filled; want 5 hits and no fill", st.MemHits, st.FillBytes)
	}
	c.mu.Lock()
	c.mem.removeEntry(c.mem.get("/d/vol", 2))
	c.mu.Unlock()
	if got := readRange(t, c, "/d/vol", 0, -1); !bytes.Equal(got, vol) {
		t.Fatal("wrong bytes after losing a block")
	}
	if st := c.Stats(); st.FillBytes != 6*blockSize || st.FillErrors != 0 {
		t.Fatalf("refetching one block filled %d bytes (%d errors); the derived chain should verify it alone", st.FillBytes-5*blockSize, st.FillErrors)
	}

	if got := readRange(t, c, "/d/bad", 0, -1); !bytes.Equal(got, flipped) {
		t.Fatal("the flipped copy was not served as a direct read serves it")
	}
	if st := c.Stats(); st.FillErrors != 1 {
		t.Fatalf("%d fill errors for a copy that does not hash to its sum, want 1", st.FillErrors)
	}
	bypasses := c.Stats().Bypasses
	if got := readRange(t, c, "/d/huge", 3*blockSize+1, 2*blockSize); !bytes.Equal(got, huge[3*blockSize+1:5*blockSize+1]) {
		t.Fatal("wrong bytes from the inadmissible object")
	}
	if c.Stats().Bypasses != bypasses+1 {
		t.Fatal("a range of an object too large to derive a chain for did not bypass the cache")
	}
	for _, e := range c.Entries() {
		if e.Path != "/d/vol" || !e.Verified {
			t.Fatalf("cached %+v; want only /d/vol's verified blocks", e)
		}
	}
}
