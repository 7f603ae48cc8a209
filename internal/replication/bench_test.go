package replication

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/adal"
	"repro/internal/units"
)

func benchFed(b *testing.B, min int) (*FederatedBackend, *Engine, catView, []*Site) {
	b.Helper()
	sites := []*Site{
		NewSite("kit", adal.NewMemFS("kit"), 0),
		NewSite("gridka", adal.NewMemFS("gridka"), 1),
		NewSite("desy", adal.NewMemFS("desy"), 2),
	}
	fb, eng, cat := newFed(b, sites, Config{MinReplicas: min, Streams: 8})
	return fb, eng, cat, sites
}

// BenchmarkReplicate measures end-to-end fan-out: a federated write
// followed by the asynchronous transfers that bring the object to
// MinReplicas=2. SetBytes counts the logical object size, so the
// reported MB/s is application throughput (the engine moves ~2x
// that: home write + one transfer).
func BenchmarkReplicate(b *testing.B) {
	fb, eng, _, _ := benchFed(b, 2)
	const objSize = 256 * units.KiB
	data := bytes.Repeat([]byte("r"), int(objSize))
	b.SetBytes(int64(objSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/b/%06d", i)
		w, err := fb.Create(path)
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
	eng.Wait()
	b.StopTimer()
	if st := eng.Stats(); st.Transfers != uint64(b.N) || st.Failures != 0 {
		b.Fatalf("transfers = %d failures = %d for %d objects", st.Transfers, st.Failures, b.N)
	}
}

// BenchmarkDirectRead is the baseline: every site up, the read is
// served by the nearest valid replica with no failover machinery
// engaged beyond candidate selection.
func BenchmarkDirectRead(b *testing.B) {
	fb, eng, _, _ := benchFed(b, 3)
	const objSize = 256 * units.KiB
	writeBench(b, fb, "/b/obj", int(objSize))
	eng.Wait()
	b.SetBytes(int64(objSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readBench(b, fb, "/b/obj")
	}
}

// BenchmarkFailoverRead measures the degraded path: the nearest
// replica's site is down, and each Open re-marks that replica valid
// so every iteration pays the full failover — try nearest, fail,
// mark stale, switch to the next site.
func BenchmarkFailoverRead(b *testing.B) {
	fb, eng, cat, sites := benchFed(b, 3)
	const objSize = 256 * units.KiB
	writeBench(b, fb, "/b/obj", int(objSize))
	eng.Wait()
	nearest := sites[0]
	nearest.SetDown(true)
	b.SetBytes(int64(objSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.Mark("/b/obj", nearest.Name, Valid)
		readBench(b, fb, "/b/obj")
	}
	b.StopTimer()
	eng.Wait()
}

// TestFederatedReadCopyIsPooled pins the pooled-buffer read path:
// copying a federated read into a destination that is not an
// io.ReaderFrom (here a SHA-256 hash, the shape of every verify and
// cache fill) must go through failoverReader.WriteTo and the shared
// buffer pool, not a fresh 32 KiB io.Copy buffer per read. The
// threshold of 16 KiB/read would catch that regression an order of
// magnitude before it reappears.
func TestFederatedReadCopyIsPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	sites := []*Site{
		NewSite("kit", adal.NewMemFS("kit"), 0),
		NewSite("gridka", adal.NewMemFS("gridka"), 1),
		NewSite("desy", adal.NewMemFS("desy"), 2),
	}
	fb, eng, _ := newFed(t, sites, Config{MinReplicas: 2})

	const objSize = 256 * units.KiB
	writeObject(t, fb, "/b/obj", bytes.Repeat([]byte("p"), int(objSize)))
	eng.Wait()

	h := sha256.New()
	readOnce := func() {
		r, err := fb.Open("/b/obj")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(h, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	readOnce() // warm the buffer pool and any lazy state

	const reads = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		readOnce()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reads
	if perRead > 16*1024 {
		t.Fatalf("federated read copy allocates %d B/read, want ≤ 16 KiB (pooled)", perRead)
	}
}

func writeBench(b *testing.B, fb *FederatedBackend, path string, size int) {
	b.Helper()
	w, err := fb.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte("d"), size)); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

func readBench(b *testing.B, fb *FederatedBackend, path string) {
	b.Helper()
	r, err := fb.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, r); err != nil {
		b.Fatal(err)
	}
	r.Close()
}
