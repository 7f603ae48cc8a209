package mapreduce_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/mrpc"
	"repro/internal/units"
	"repro/internal/workloads"
)

// The job shapes of experiments E6, E8, E9 and E18 — their clusters,
// generators, mappers, reducers, fan-out and spill budgets, at sizes a
// test can afford — run through both transports and compared with the
// digests the deleted engine wrote for them (golden_test.go).
type shape struct {
	name    string
	cluster func() *dfs.Cluster
	input   []byte
	cfg     mapreduce.Config // Inputs and OutputDir are the runner's
}

func shapeCluster(nodes, racks int, block units.Bytes, seed int64) func() *dfs.Cluster {
	return func() *dfs.Cluster {
		c := dfs.NewCluster(dfs.Config{BlockSize: block, Replication: 3, Seed: seed})
		for i := 0; i < nodes; i++ {
			if _, err := c.AddDataNode(fmt.Sprintf("dn%02d", i), fmt.Sprintf("rack%d", i%racks), units.GiB); err != nil {
				panic(err)
			}
		}
		return c
	}
}

var fieldsMapper = mapreduce.MapperFunc(func(_ string, v []byte, emit mapreduce.Emit) error {
	for _, w := range strings.Fields(string(v)) {
		emit(w, []byte("1"))
	}
	return nil
})

func experimentShapes() []shape {
	var e6 strings.Builder
	for i := 0; i < 8_000; i++ {
		fmt.Fprintf(&e6, "zebrafish embryo screen plate%04d well%02d image analysis\n", i%512, i%96)
	}
	e6cfg := mapreduce.Config{
		Mapper: fieldsMapper, Reducer: mapreduce.SumReducer(), Combiner: mapreduce.SumReducer(),
		NumReducers: 4, Locality: true, SlotsPerNode: 1,
	}
	e6spill := e6cfg
	e6spill.ShuffleMemory = 4 * units.KiB

	vol := workloads.VolumeConfig{Width: 128, Height: 64, Depth: 24, Seed: 8}
	var volume []byte
	for z := 0; z < vol.Depth; z++ {
		volume = append(volume, vol.GenerateSlab(z)...)
	}

	reads := workloads.GenerateReads(workloads.GenerateGenome(10_000, 5), workloads.ReadsConfig{
		ReadLen: 100, Coverage: 12, ErrorRate: 0.01, Seed: 6,
	})

	e18corpus := func(seed int) []byte {
		words := []string{"fish", "embryo", "the", "toxicology", "screen",
			"development", "kit", "genome", "sequence", "tile"}
		var sb strings.Builder
		for i := 0; i < 800; i++ {
			fmt.Fprintf(&sb, "%s %s %s line%04d\n",
				words[(i+seed)%len(words)], words[(i*3+seed)%len(words)],
				words[(i*7+seed+2)%len(words)], i)
		}
		return []byte(sb.String())
	}
	e18cfg := mapreduce.Config{
		Mapper: fieldsMapper, Reducer: mapreduce.SumReducer(), Combiner: mapreduce.SumReducer(),
		NumReducers: 3, Locality: true, Speculative: true, ShuffleMemory: 1024,
	}

	mr := func(block units.Bytes) func() *dfs.Cluster { return shapeCluster(8, 4, block, 6) }
	return []shape{
		{"e6", mr(16 * units.KiB), []byte(e6.String()), e6cfg},
		// A quarter of the corpus: ~150 spilled runs are enough, and the
		// HTTP transport fetches every segment of every run on its own.
		{"e6-spill", mr(16 * units.KiB), []byte(e6.String()[:e6.Len()/4]), e6spill},
		{"e8-mip", mr(vol.SlabBytes()), volume, mapreduce.Config{
			Mapper: workloads.MIPMapper(vol), Reducer: workloads.MIPReducer,
			Format: mapreduce.WholeSplitInput, Locality: true,
		}},
		{"e9-kmers", mr(16 * units.KiB), reads, mapreduce.Config{
			Mapper: workloads.KMerMapper(21), Reducer: mapreduce.SumReducer(),
			Combiner: mapreduce.SumReducer(), NumReducers: 4, Locality: true,
		}},
		{"e9-coverage", mr(16 * units.KiB), reads, mapreduce.Config{
			Mapper: workloads.CoverageMapper(1000), StreamReducer: workloads.StreamSumReducer,
			Combiner: mapreduce.SumReducer(), NumReducers: 4, Locality: true,
			ShuffleMemory: 16 * units.KiB,
		}},
		{"e18-bio", shapeCluster(8, 2, 2*units.KiB, 18), e18corpus(3), e18cfg},
		{"e18-climate", shapeCluster(8, 2, 2*units.KiB, 18), e18corpus(5), e18cfg},
	}
}

func TestGoldenExperimentShapes(t *testing.T) {
	for _, sh := range experimentShapes() {
		sh.cfg.Name = sh.name
		sh.cfg.Inputs = []string{"/in"}
		sh.cfg.OutputDir = "/out"
		t.Run(sh.name+"/direct", func(t *testing.T) {
			c := sh.cluster()
			if err := c.WriteFile("/in", "", sh.input); err != nil {
				t.Fatal(err)
			}
			res, err := mapreduce.Run(c, sh.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mapreduce.CheckGolden(t, sh.name, c, res.OutputFiles)
		})
		t.Run(sh.name+"/http", func(t *testing.T) {
			c := sh.cluster()
			if err := c.WriteFile("/in", "", sh.input); err != nil {
				t.Fatal(err)
			}
			reg := mapreduce.Registry{sh.name: func(mrpc.JobSpec) (mapreduce.Config, error) { return sh.cfg, nil }}
			m, err := mapreduce.NewMaster(mapreduce.MasterConfig{Cluster: c, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for i, node := range c.DataNodes()[:4] {
				w, err := mapreduce.StartWorker(mapreduce.WorkerConfig{
					ID: fmt.Sprintf("w%d", i), Master: m.URL(), Store: mapreduce.NewDFSStore(c),
					Node: node, Registry: reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
			}
			j, err := m.Submit(mrpc.JobSpec{Name: sh.name, Inputs: sh.cfg.Inputs, OutputDir: sh.cfg.OutputDir}, "t")
			if err != nil {
				t.Fatal(err)
			}
			res, err := j.Wait()
			if err != nil {
				t.Fatal(err)
			}
			mapreduce.CheckGolden(t, sh.name, c, res.OutputFiles)
		})
	}
}
