package metadata

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metadata/durafs"
	"repro/internal/units"
)

// BenchmarkCreate measures dataset registration, the ingest
// pipeline's per-object metadata cost.
func BenchmarkCreate(b *testing.B) {
	s := NewStore()
	basic := map[string]string{"well": "A1", "wavelength": "488nm"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/b/%09d", i), 4*units.MB, "", basic); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreateParallel is the sharding headline: concurrent
// writers registering datasets at 1/4/16 shards × 1/8/64 goroutines.
// shards=1 is the single-lock baseline the seed store had; the
// 16-shard/64-goroutine cell versus that baseline is the number
// EXPERIMENTS.md records. Goroutine counts are fixed explicitly (not
// via RunParallel) and GOMAXPROCS is raised to the worker count
// (capped at 16) for the duration, so the writers genuinely contend
// — via OS time-slicing if the host has fewer cores — instead of
// cooperatively serializing on a single P.
func BenchmarkCreateParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, workers), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(min(workers, 16))
				defer runtime.GOMAXPROCS(prev)
				s := NewStoreWith(Options{Shards: shards})
				basic := map[string]string{"well": "A1", "wavelength": "488nm"}
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							if _, err := s.Create("p", fmt.Sprintf("/p/%02d/%09d", w, i), 4*units.MB, "", basic); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkCreateBatch measures bulk registration through the
// batched API (one lock round per shard) against the same volume of
// per-dataset Create calls.
func BenchmarkCreateBatch(b *testing.B) {
	const batch = 256
	for _, mode := range []string{"loop-create", "create-batch"} {
		b.Run(mode, func(b *testing.B) {
			s := NewStore()
			specs := make([]CreateSpec, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range specs {
					specs[j] = CreateSpec{
						Project: "p",
						Path:    fmt.Sprintf("/b/%09d/%03d", i, j),
						Size:    4 * units.MB,
						Tags:    []string{"raw"},
					}
				}
				if mode == "create-batch" {
					for _, r := range s.CreateBatch(specs) {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
					continue
				}
				for _, sp := range specs {
					ds, err := s.Create(sp.Project, sp.Path, sp.Size, sp.Checksum, sp.Basic)
					if err != nil {
						b.Fatal(err)
					}
					for _, tag := range sp.Tags {
						if err := s.Tag(ds.ID, tag); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(batch), "datasets/op")
		})
	}
}

// BenchmarkFindIndexed measures a tag-indexed query against a 100k
// dataset repository (the E3 fast path).
func BenchmarkFindIndexed(b *testing.B) {
	s := NewStore()
	for i := 0; i < 100_000; i++ {
		ds, err := s.Create("p", fmt.Sprintf("/b/%06d", i), 1, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		if i%100 == 0 {
			if err := s.Tag(ds.ID, "hot"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Find(Query{Tags: []string{"hot"}}); len(got) != 1000 {
			b.Fatalf("hits = %d", len(got))
		}
	}
}

// BenchmarkFindScan measures the same repository through a
// basic-metadata filter that cannot use an index.
func BenchmarkFindScan(b *testing.B) {
	s := NewStore()
	for i := 0; i < 100_000; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/b/%06d", i), 1, "",
			map[string]string{"well": fmt.Sprintf("A%d", i%96)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Find(Query{Basic: map[string]string{"well": "A7"}, Limit: 10})
	}
}

// BenchmarkCreateParallelWAL is the WAL-tax companion to
// BenchmarkCreateParallel: the same 16-shard concurrent-writer grid,
// with durability off, journaled to an in-memory disk model, and
// journaled to a real filesystem with and without a group-commit
// window. The off/os delta is the price of crash durability; the
// interval column shows group commit buying most of it back under
// concurrency. EXPERIMENTS.md records the 64-goroutine cells.
func BenchmarkCreateParallelWAL(b *testing.B) {
	modes := []struct {
		name string
		open func(b *testing.B) *Store
	}{
		{"wal=off", func(b *testing.B) *Store {
			return NewStoreWith(Options{Shards: 16})
		}},
		{"wal=mem", func(b *testing.B) *Store {
			s, err := Open(Options{Shards: 16, WALDir: "/wal", FS: durafs.NewMem()})
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"wal=os", func(b *testing.B) *Store {
			s, err := Open(Options{Shards: 16, WALDir: b.TempDir(), FS: durafs.OS()})
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
		{"wal=os-group100us", func(b *testing.B) *Store {
			s, err := Open(Options{Shards: 16, WALDir: b.TempDir(), FS: durafs.OS(),
				GroupCommitInterval: 100 * time.Microsecond})
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
	}
	for _, mode := range modes {
		for _, workers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode.name, workers), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(min(workers, 16))
				defer runtime.GOMAXPROCS(prev)
				s := mode.open(b)
				defer s.Close()
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							if _, err := s.Create("p", fmt.Sprintf("/p/%02d/%09d", w, i), 4*units.MB, "", nil); err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkCreateBatchWAL measures bulk ingest through CreateBatch on
// a durable store: the batch is the natural group-commit unit (one
// fsync for the whole batch), so the per-dataset
// WAL tax here is the floor.
func BenchmarkCreateBatchWAL(b *testing.B) {
	const batch = 256
	for _, mode := range []string{"wal=off", "wal=os"} {
		b.Run(mode, func(b *testing.B) {
			var s *Store
			if mode == "wal=off" {
				s = NewStoreWith(Options{Shards: 16})
			} else {
				var err error
				s, err = Open(Options{Shards: 16, WALDir: b.TempDir(), FS: durafs.OS()})
				if err != nil {
					b.Fatal(err)
				}
			}
			defer s.Close()
			specs := make([]CreateSpec, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range specs {
					specs[j] = CreateSpec{
						Project: "p",
						Path:    fmt.Sprintf("/b/%09d/%03d", i, j),
						Size:    4 * units.MB,
						Tags:    []string{"raw"},
					}
				}
				for _, r := range s.CreateBatch(specs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(batch), "datasets/op")
		})
	}
}
