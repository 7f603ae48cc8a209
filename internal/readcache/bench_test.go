package readcache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/adal"
	"repro/internal/units"
)

func benchCache(b *testing.B, cfg Config) (*Cache, *countingBackend) {
	b.Helper()
	inner := &countingBackend{Backend: adal.NewMemFS("inner")}
	c := New(inner, cfg)
	b.Cleanup(c.Close)
	return c, inner
}

func benchRead(b *testing.B, c *Cache, path string) {
	r, err := c.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		b.Fatal(err)
	}
	r.Close()
}

// BenchmarkCachedRead is the steady-state hit path: one hot object
// served from the memory tier.
func BenchmarkCachedRead(b *testing.B) {
	const objSize = 256 * units.KiB
	c, inner := benchCache(b, Config{Memory: 4 * units.MiB})
	path := "/b/hot"
	writeBackend2(b, inner, path, bytes.Repeat([]byte("h"), int(objSize)))
	benchRead(b, c, path) // fill
	b.SetBytes(int64(objSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRead(b, c, path)
	}
	b.StopTimer()
	if n := inner.opens.Load(); n != 1 {
		b.Fatalf("inner opens = %d, want 1", n)
	}
}

// BenchmarkColdFill is the miss path: every iteration admits a new
// object, evicting older ones — transfer + hash + insert + evict.
func BenchmarkColdFill(b *testing.B) {
	const objSize = 64 * units.KiB
	c, inner := benchCache(b, Config{Memory: 2 * units.MiB})
	data := bytes.Repeat([]byte("c"), int(objSize))
	for i := 0; i < b.N; i++ {
		writeBackend2(b, inner, fmt.Sprintf("/b/cold-%07d", i), data)
	}
	b.SetBytes(int64(objSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRead(b, c, fmt.Sprintf("/b/cold-%07d", i))
	}
}

// BenchmarkRangeMiss is the ranged miss path: 256 KiB at a random
// 64 KiB-aligned offset of a 64 MiB object that is never admitted
// whole — seek, fetch and verify the four blocks touched, insert,
// evict.
func BenchmarkRangeMiss(b *testing.B) {
	const size, span = 64 << 20, 256 << 10
	c, site := patternFed(b, size, Config{Memory: 4 * units.MiB})
	rng := rand.New(rand.NewSource(17))
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := rng.Int63n((size-span)/(64<<10)+1) * (64 << 10)
		r, err := c.OpenRange(context.Background(), "/vol", off, span)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, r)
		r.Close()
		if err != nil || n != span {
			b.Fatalf("read %d bytes: %v", n, err)
		}
	}
	b.StopTimer()
	if read := site.read.Load(); read > int64(b.N)*span {
		b.Fatalf("site delivered %d bytes for %d ranged reads: more than the range each", read, b.N)
	}
}

// BenchmarkZipfMixed is the realistic blend: zipf(1.1) over 512
// objects with a memory tier sized for ~1/8 of them — hits, fills
// and evictions in workload proportions.
func BenchmarkZipfMixed(b *testing.B) {
	const objSize = 16 * units.KiB
	const objects = 512
	c, inner := benchCache(b, Config{Memory: units.MiB})
	data := bytes.Repeat([]byte("z"), int(objSize))
	for i := 0; i < objects; i++ {
		writeBackend2(b, inner, fmt.Sprintf("/b/obj-%04d", i), data)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, objects-1)
	b.SetBytes(int64(objSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRead(b, c, fmt.Sprintf("/b/obj-%04d", zipf.Uint64()))
	}
	b.StopTimer()
	if st := c.Stats(); b.N > 100 && st.MemHits == 0 {
		b.Fatalf("no cache hits in zipf workload: %+v", st)
	}
}

func writeBackend2(b *testing.B, be adal.Backend, path string, data []byte) {
	b.Helper()
	w, err := be.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
