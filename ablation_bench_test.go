// Ablation benchmarks: each isolates one design choice the paper's
// stack depends on and measures the system with the mechanism on and
// off (or across its settings), so the benefit each mechanism buys is
// visible in `go test -bench=Ablation`.
package lsdf_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/hsm"
	"repro/internal/mapreduce"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/units"
)

func ablationCluster(b *testing.B, nodes int, blockSize units.Bytes, replication int) *dfs.Cluster {
	b.Helper()
	c := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: replication, Seed: 17})
	for i := 0; i < nodes; i++ {
		if _, err := c.AddDataNode(fmt.Sprintf("dn%02d", i), fmt.Sprintf("r%d", i%3), 4*units.GiB); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

var ablationMapper = mapreduce.MapperFunc(func(_ string, v []byte, emit mapreduce.Emit) error {
	for _, w := range strings.Fields(string(v)) {
		emit(w, []byte("1"))
	}
	return nil
})

func ablationCorpus() []byte {
	var sb strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&sb, "fish embryo plate%03d well%02d segmentation result\n", i%128, i%96)
	}
	return []byte(sb.String())
}

// BenchmarkAblationCombiner measures the shuffle with and without the
// map-side combiner. The metric is shuffled bytes per job: combiners
// exist to shrink exactly that.
func BenchmarkAblationCombiner(b *testing.B) {
	data := ablationCorpus()
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("combiner="+name, func(b *testing.B) {
			var shuffle int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := ablationCluster(b, 6, 64*units.KiB, 3)
				if err := c.WriteFile("/a/corpus", "", data); err != nil {
					b.Fatal(err)
				}
				cfg := mapreduce.Config{
					Inputs: []string{"/a/corpus"}, OutputDir: "/a/out",
					Mapper: ablationMapper, Reducer: mapreduce.SumReducer(),
					NumReducers: 4, Locality: true,
				}
				if on {
					cfg.Combiner = mapreduce.SumReducer()
				}
				b.StartTimer()
				res, err := mapreduce.Run(c, cfg)
				if err != nil {
					b.Fatal(err)
				}
				shuffle = res.Counters.ShuffleBytes
			}
			b.ReportMetric(float64(shuffle), "shuffle-bytes/job")
		})
	}
}

// BenchmarkAblationLocality measures remote block reads with locality
// scheduling on and off — rack-aware placement only pays off if the
// scheduler uses it.
func BenchmarkAblationLocality(b *testing.B) {
	data := ablationCorpus()
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("locality="+name, func(b *testing.B) {
			var remote uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := ablationCluster(b, 6, 64*units.KiB, 3)
				if err := c.WriteFile("/a/corpus", "", data); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := mapreduce.Run(c, mapreduce.Config{
					Inputs: []string{"/a/corpus"}, OutputDir: "/a/out",
					Mapper: ablationMapper, Reducer: mapreduce.SumReducer(),
					Combiner: mapreduce.SumReducer(), Locality: on, SlotsPerNode: 1,
				}); err != nil {
					b.Fatal(err)
				}
				remote = c.Report().RemoteReads
			}
			b.ReportMetric(float64(remote), "remote-block-reads")
		})
	}
}

// BenchmarkAblationSpeculation measures job wall time with one
// pathologically slow node, speculation off versus on.
func BenchmarkAblationSpeculation(b *testing.B) {
	var lines []string
	for i := 0; i < 30; i++ {
		lines = append(lines, fmt.Sprintf("record%02d payload", i))
	}
	data := []byte(strings.Join(lines, "\n") + "\n")
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("speculation="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := ablationCluster(b, 4, 64, 3)
				if err := c.WriteFile("/a/lines", "", data); err != nil {
					b.Fatal(err)
				}
				var slow int64
				b.StartTimer()
				if _, err := mapreduce.Run(c, mapreduce.Config{
					Inputs: []string{"/a/lines"}, OutputDir: "/a/out",
					Mapper: ablationMapper, Reducer: mapreduce.SumReducer(),
					SlotsPerNode: 1, Speculative: on,
					StragglerFactor: 1.5,
					TaskDelay: func(node string, task int) time.Duration {
						if node == "dn00" && atomic.AddInt64(&slow, 1) < 4 {
							return 150 * time.Millisecond
						}
						return time.Millisecond
					},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReplication measures write cost at replication
// factors 1-3: durability is paid in write bandwidth.
func BenchmarkAblationReplication(b *testing.B) {
	payload := make([]byte, 2*units.MiB)
	for _, r := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("replication=%d", r), func(b *testing.B) {
			c := ablationCluster(b, 9, 256*units.KiB, r)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.WriteFile(fmt.Sprintf("/a/%06d", i), "dn00", payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTapeMountCache measures the tape library under a
// cartridge-friendly access run versus a worst-case alternating run:
// the idle-drive mount cache is the difference.
func BenchmarkAblationTapeMountCache(b *testing.B) {
	for _, pattern := range []string{"sequential", "alternating"} {
		b.Run("access="+pattern, func(b *testing.B) {
			var mounts uint64
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				eng := sim.New(1)
				lb := tape.New(eng, tape.Config{
					Drives: 1, MountTime: 90 * time.Second, UnmountTime: 60 * time.Second,
					AvgSeek: 50 * time.Second, StreamRate: units.Rate(140 * units.MB),
				})
				lb.AddCartridge("a", units.PB)
				lb.AddCartridge("b", units.PB)
				for j := 0; j < 20; j++ {
					cart := "a"
					if pattern == "alternating" && j%2 == 1 {
						cart = "b"
					}
					lb.Read(cart, units.GB, func(error) {})
				}
				eng.Run()
				mounts = lb.Stats().Mounts
				virtual = eng.Now()
			}
			b.ReportMetric(float64(mounts), "mounts")
			b.ReportMetric(virtual.Seconds(), "virtual-sec")
		})
	}
}

// BenchmarkAblationHSMWatermarks measures migration volume across
// watermark pairs: aggressive watermarks trade tape traffic for disk
// headroom.
func BenchmarkAblationHSMWatermarks(b *testing.B) {
	cases := []struct {
		name      string
		high, low float64
	}{
		{"tight-95-90", 0.95, 0.90},
		{"default-85-70", 0.85, 0.70},
		{"aggressive-70-40", 0.70, 0.40},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var migrated units.Bytes
			for i := 0; i < b.N; i++ {
				eng := sim.New(1)
				disk := storage.NewArray(eng, "d", 100*units.GB, units.Rate(5*units.GB))
				if _, err := disk.CreateVolume("v", 0); err != nil {
					b.Fatal(err)
				}
				lib := tape.New(eng, tape.DefaultConfig())
				pol := hsm.DefaultPolicy()
				pol.HighWatermark = tc.high
				pol.LowWatermark = tc.low
				pol.MinAge = 0
				m, err := hsm.New(eng, disk, "v", lib, pol)
				if err != nil {
					b.Fatal(err)
				}
				for f := 0; f < 96; f++ {
					if err := m.Store(fmt.Sprintf("f%03d", f), units.GB); err != nil {
						b.Fatal(err)
					}
				}
				eng.RunUntil(48 * time.Hour)
				migrated = m.Stats().MigratedBytes
			}
			b.ReportMetric(float64(migrated)/1e9, "migrated-GB")
		})
	}
}
