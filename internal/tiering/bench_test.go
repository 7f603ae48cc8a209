package tiering

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

// BenchmarkRecall measures the transparent-recall hot path: Open on a
// migrated object (cold read + checksum verify + hot rewrite). The
// re-migration between iterations is excluded from the timing.
func BenchmarkRecall(b *testing.B) {
	for _, size := range []units.Bytes{64 * units.KiB, 1 * units.MiB} {
		b.Run(size.SI(), func(b *testing.B) {
			hot := adal.NewMemFS("hot")
			cold := adal.NewMemFS("cold")
			tier, err := New("tier", hot, cold, Config{Meta: metadata.NewStore()})
			if err != nil {
				b.Fatal(err)
			}
			defer tier.Close()
			data := bytes.Repeat([]byte{0xAB}, int(size))
			w, err := tier.Create("/bench/obj")
			if err != nil {
				b.Fatal(err)
			}
			w.Write(data)
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if err := tier.Migrate("/bench/obj"); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := tier.Open("/bench/obj")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, r); err != nil {
					b.Fatal(err)
				}
				r.Close()
				b.StopTimer()
				if err := tier.Migrate("/bench/obj"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMigrationUnderIngest measures sustained ingest throughput
// into a hot tier kept at its watermark by the background migration
// pool — the write path's end-to-end cost including the tier's
// bookkeeping, checksumming, and the migrations it provokes.
func BenchmarkMigrationUnderIngest(b *testing.B) {
	const objSize = 64 * units.KiB
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			hot := adal.NewMemFS("hot")
			cold := adal.NewMemFS("cold")
			tier, err := New("tier", hot, cold, Config{
				Policy:           Policy{HighWatermark: 0.85, LowWatermark: 0.60},
				HotCapacity:      4 * units.MiB,
				MigrationWorkers: workers,
				Meta:             metadata.NewStore(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tier.Close()
			data := bytes.Repeat([]byte{0x5A}, int(objSize))
			b.SetBytes(int64(objSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := tier.Create(fmt.Sprintf("/bench/obj%08d", i))
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
			tier.Scan()
			tier.Wait()
			b.StopTimer()
			if tier.Stats().Migrations == 0 && b.N > 64 {
				b.Fatal("benchmark migrated nothing")
			}
		})
	}
}

// BenchmarkHotOpen is the control: Open on a resident object must
// cost barely more than the underlying backend's Open.
func BenchmarkHotOpen(b *testing.B) {
	hot := adal.NewMemFS("hot")
	cold := adal.NewMemFS("cold")
	tier, err := New("tier", hot, cold, Config{Meta: metadata.NewStore()})
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()
	w, err := tier.Create("/bench/hot")
	if err != nil {
		b.Fatal(err)
	}
	w.Write(bytes.Repeat([]byte{1}, 64*1024))
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tier.Open("/bench/hot")
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}
