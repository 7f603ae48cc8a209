package adal

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/units"
)

// chainSizes are the object sizes every block-level test walks: empty,
// one byte, around the first and the fourth block boundary, a ragged
// multi-block object and an exact multiple.
var chainSizes = []int{0, 1, ChainBlock - 1, ChainBlock, ChainBlock + 1,
	4*ChainBlock - 1, 4 * ChainBlock, 4*ChainBlock + 1, 12*ChainBlock + 17, 32 * ChainBlock}

func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func blockOf(data []byte, j int64) []byte {
	return data[j*ChainBlock : min(int64(len(data)), (j+1)*ChainBlock)]
}

// TestChainAgainstSum256: whatever the write pattern, the hasher's
// digest is sha256.Sum256, its chain has one checkpoint per inner
// boundary, and every block verifies on its own. Then, for a block k:
// a flipped byte or a truncation is rejected for k and nothing else,
// and a tampered checkpoint is rejected by the two blocks that meet at
// it (k, which resumes from it, and k-1, which must land on it) and
// nothing else.
func TestChainAgainstSum256(t *testing.T) {
	for _, size := range chainSizes {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			data := seededBytes(int64(size), size)
			h := NewChainHasher()
			rng := rand.New(rand.NewSource(1))
			for rest := data; len(rest) > 0; { // ragged writes straddling boundaries
				k := min(len(rest), 1+rng.Intn(ChainBlock+ChainBlock/2))
				h.Write(rest[:k])
				rest = rest[k:]
			}
			d := h.Digest()
			want := sha256.Sum256(data)
			if d.Sum != hex.EncodeToString(want[:]) || int(d.Size) != size {
				t.Fatalf("digest = (%d, %.12s), want (%d, %x)", d.Size, d.Sum, size, want[:6])
			}
			nb := d.Blocks()
			if want := max(nb-1, 0) * cvLen; int64(len(d.Chain)) != want {
				t.Fatalf("chain is %d bytes for %d blocks, want %d", len(d.Chain), nb, want)
			}
			if size > 0 && !d.Chained() {
				t.Fatal("a hasher's own digest is not chained")
			}
			verdicts := func(d Digest, mutate func(j int64, blk []byte) []byte) (bad []int64) {
				for j := int64(0); j < nb; j++ {
					if !d.VerifyBlock(j, mutate(j, blockOf(data, j))) {
						bad = append(bad, j)
					}
				}
				return bad
			}
			same := func(_ int64, blk []byte) []byte { return blk }
			if bad := verdicts(d, same); len(bad) != 0 {
				t.Fatalf("intact blocks rejected: %v", bad)
			}
			if d.VerifyBlock(nb, nil) || d.VerifyBlock(-1, nil) {
				t.Fatal("a block index outside the object verified")
			}
			if nb == 0 {
				return
			}
			k := nb / 2
			flip := func(j int64, blk []byte) []byte {
				if j != k {
					return blk
				}
				blk = bytes.Clone(blk)
				blk[len(blk)/2] ^= 0x40
				return blk
			}
			if bad := verdicts(d, flip); len(bad) != 1 || bad[0] != k {
				t.Fatalf("flipped byte in block %d: rejected %v", k, bad)
			}
			short := func(j int64, blk []byte) []byte {
				if j != k {
					return blk
				}
				return blk[:len(blk)-1]
			}
			if bad := verdicts(d, short); len(bad) != 1 || bad[0] != k {
				t.Fatalf("truncated block %d: rejected %v", k, bad)
			}
			if k == 0 {
				return // one block: no checkpoint to tamper with
			}
			tampered := d
			tampered.Chain = bytes.Clone(d.Chain)
			tampered.Chain[int(k-1)*cvLen+10] ^= 1 // checkpoint k: the state block k resumes from
			if bad := verdicts(tampered, same); len(bad) != 2 || bad[0] != k-1 || bad[1] != k {
				t.Fatalf("tampered checkpoint %d: rejected %v, want [%d %d]", k, bad, k-1, k)
			}
			noChain := d
			noChain.Chain = nil
			if noChain.Chained() || noChain.VerifyBlock(0, blockOf(data, 0)) {
				t.Fatal("a multi-block digest without a chain verified a block")
			}
		})
	}
}

// TestBlockStateIsMarshalBinary pins the state blockState rebuilds from
// a checkpoint to crypto/sha256's own marshalled state at every block
// boundary: a toolchain that changes that layout fails here, not in a
// verify that rejects every block.
func TestBlockStateIsMarshalBinary(t *testing.T) {
	data := seededBytes(9, 3*ChainBlock)
	h := sha256.New()
	for j := int64(1); j <= 3; j++ {
		h.Write(blockOf(data, j-1))
		want, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var st [stateLen]byte
		cv := appendCV(nil, h, nil)
		blockState(&st, cv, j*ChainBlock)
		if !bytes.Equal(st[:], want) {
			t.Fatalf("boundary %d: rebuilt state %x, MarshalBinary %x", j, st, want)
		}
		resumed := sha256.New()
		if err := resumed.(encoding.BinaryUnmarshaler).UnmarshalBinary(st[:]); err != nil {
			t.Fatal(err)
		}
		if got, want := resumed.Sum(nil), sha256.Sum256(data[:j*ChainBlock]); !bytes.Equal(got, want[:]) {
			t.Fatalf("boundary %d: resumed state sums to %x, want %x", j, got[:6], want[:6])
		}
	}
	ch := NewChainHasher()
	ch.Write(data)
	d := ch.Digest()
	if len(d.Chain) != 2*cvLen {
		t.Fatalf("chain of %d bytes for 3 blocks, want one %d-byte chaining value per inner boundary", len(d.Chain), cvLen)
	}
	if raceEnabled {
		return // race instrumentation inflates allocation counts
	}
	if n := testing.AllocsPerRun(20, func() { d.VerifyBlock(1, blockOf(data, 1)) }); n > 2 {
		t.Fatalf("VerifyBlock of an inner block allocates %v times, want at most 2 (the hash and its state)", n)
	}
}

// countingHash counts the bytes every hash made through newHash is fed.
type countingHash struct {
	hash.Hash
	n *int64
}

func (c countingHash) Write(p []byte) (int, error) {
	*c.n += int64(len(p))
	return c.Hash.Write(p)
}

func (c countingHash) MarshalBinary() ([]byte, error) {
	return c.Hash.(encoding.BinaryMarshaler).MarshalBinary()
}

// digestingFS is a backend that registers a digest at commit time, as
// the federated backend does: Create hands out a ChecksumWriter.
type digestingFS struct {
	*FSBackend
	got Digest
}

func (f *digestingFS) Create(path string) (io.WriteCloser, error) {
	w, err := f.FSBackend.Create(path)
	if err != nil {
		return nil, err
	}
	return NewChecksumWriter(w, func(d Digest, err error) error {
		f.got = d
		return err
	}), nil
}

// TestOneHashPassPerStoredByte: WriteChecksummed and
// CopyObjectChecksummed into a mount whose writer already hashes use
// that writer's digest instead of hashing the stream a second time,
// and still hash for themselves on a plain mount.
func TestOneHashPassPerStoredByte(t *testing.T) {
	var hashed int64
	newHash = func() hash.Hash { return countingHash{sha256.New(), &hashed} }
	defer func() { newHash = sha256.New }()

	l := NewLayer()
	fed := &digestingFS{FSBackend: NewMemFS("fed")}
	l.Mount("/sites", fed)
	l.Mount("/plain", NewMemFS("plain"))
	payload := strings.Repeat("one pass. ", 5*ChainBlock/2/10) // 2.5 blocks: three
	want := sha256.Sum256([]byte(payload))

	for _, step := range []struct {
		name string
		do   func() (units.Bytes, string, error)
	}{
		{"PUT into a digesting mount", func() (units.Bytes, string, error) {
			return l.WriteChecksummed("/sites/x", strings.NewReader(payload))
		}},
		{"PUT into a plain mount", func() (units.Bytes, string, error) {
			return l.WriteChecksummed("/plain/x", strings.NewReader(payload))
		}},
		{"copy into a digesting mount", func() (units.Bytes, string, error) {
			d, err := l.CopyObjectChecksummed("/plain/x", "/sites/y")
			return d.Size, d.Sum, err
		}},
	} {
		hashed = 0
		n, sum, err := step.do()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if int(n) != len(payload) || sum != hex.EncodeToString(want[:]) {
			t.Fatalf("%s: (%d, %.12s), want (%d, %x)", step.name, n, sum, len(payload), want[:6])
		}
		if hashed != int64(len(payload)) {
			t.Fatalf("%s hashed %d bytes for %d stored: want exactly one pass", step.name, hashed, len(payload))
		}
	}
	if fed.got.Sum != hex.EncodeToString(want[:]) || !fed.got.Chained() || fed.got.Blocks() != 3 {
		t.Fatalf("mount registered %+v", fed.got)
	}
}

// onlyReader hides every method of a reader but Read.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// TestOpenRangeAndSkipTo: the ranged entry returns exactly the bytes of
// [off, off+n) on every kind of mount, MemFS readers seek, and SkipTo
// falls back to a discard on a reader that cannot.
func TestOpenRangeAndSkipTo(t *testing.T) {
	data := seededBytes(3, 3*ChainBlock+17)
	l := NewLayer()
	mem := NewMemFS("m")
	l.Mount("/m", mem)
	dir, err := NewLocalFS("l", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l.Mount("/l", dir)
	for _, p := range []string{"/m/x", "/l/x"} {
		if _, _, err := l.WriteChecksummed(p, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		for _, rg := range [][2]int64{{0, -1}, {0, 0}, {5, 10}, {ChainBlock - 1, 2}, {int64(len(data)), -1}, {int64(len(data)) - 3, 100}, {ChainBlock, 2 * ChainBlock}} {
			r, err := l.OpenRange(context.Background(), p, rg[0], rg[1])
			if err != nil {
				t.Fatalf("%s %v: %v", p, rg, err)
			}
			got, err := io.ReadAll(r)
			r.Close()
			end := int64(len(data))
			if rg[1] >= 0 {
				end = min(end, rg[0]+rg[1])
			}
			if err != nil || !bytes.Equal(got, data[rg[0]:end]) {
				t.Fatalf("%s range %v: %d bytes, err %v; want %d", p, rg, len(got), err, end-rg[0])
			}
		}
	}
	r, _ := mem.Open("/x")
	if _, ok := r.(io.Seeker); !ok {
		t.Fatal("MemFS reader does not seek: SkipTo on it is O(offset)")
	}
	plain := onlyReader{bytes.NewReader(data)}
	if err := SkipTo(plain, 1000); err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(plain); !bytes.Equal(got, data[1000:]) {
		t.Fatal("SkipTo by discard landed elsewhere")
	}
	if err := SkipTo(onlyReader{bytes.NewReader(data)}, int64(len(data))+1); err == nil {
		t.Fatal("discarding past the end of a reader reported no error")
	}
}
