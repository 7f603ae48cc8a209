package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/units"
)

// BenchmarkWordCount measures the full engine — splits, locality
// scheduling, map, combine, shuffle, reduce, output — on a fixed
// corpus.
func BenchmarkWordCount(b *testing.B) {
	var corpus strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&corpus, "zebrafish embryo plate%03d image analysis\n", i%64)
	}
	data := []byte(corpus.String())
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := testCluster(8, 64*units.KiB)
		if err := c.WriteFile("/bench/corpus", "", data); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Run(c, Config{
			Inputs: []string{"/bench/corpus"}, OutputDir: "/bench/out",
			Mapper: wordCountMapper, Reducer: SumReducer(), Combiner: SumReducer(),
			NumReducers: 4, Locality: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapCollect emits one map-side partition of each key shape —
// 10k records; zipf under 24-byte keys is the benchmark workload's —
// into a collector and orders the run: the intern table, the buffers,
// the sort of the distinct keys and the scatter. zipf-sum emits the
// zipf keys with counts to a collector that folds SumReducer: the
// table and one add per record, one record per key when ordered. Each
// collector is released, so the next iteration takes a warm table and
// buffers from spares, as an attempt does.
func BenchmarkMapCollect(b *testing.B) {
	for _, shape := range []string{"uniform", "zipf", "equal", "sorted", "reversed", "zipf-sum"} {
		keys, rt := sortInputs(10_000, 1)[strings.TrimSuffix(shape, "-sum")], testRuntime(Config{})
		if shape == "zipf-sum" {
			rt = testRuntime(Config{Combiner: SumReducer()})
		}
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := newMapCollector(rt, "", 0)
				if rt.cfg.Combiner == nil {
					collect(col, keys)
				} else {
					for _, k := range keys {
						col.add(k, one)
					}
				}
				if err := col.orderAndCombine(); err != nil {
					b.Fatal(err)
				}
				col.release()
			}
		})
	}
}

// shuffleBench runs one wordcount with a configurable spill budget —
// the spill-vs-in-memory measurement pair.
func shuffleBench(b *testing.B, mem units.Bytes) {
	var corpus strings.Builder
	for i := 0; i < 30_000; i++ {
		fmt.Fprintf(&corpus, "plate%04d well%03d image%02d analysis pass%d\n", i%512, i%96, i%31, i%7)
	}
	data := []byte(corpus.String())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := testCluster(8, 64*units.KiB)
		if err := c.WriteFile("/bench/shuffle", "", data); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Run(c, Config{
			Inputs: []string{"/bench/shuffle"}, OutputDir: "/bench/sout",
			Mapper: wordCountMapper, Reducer: SumReducer(), NumReducers: 4,
			Locality: true, ShuffleMemory: mem,
		})
		if err != nil {
			b.Fatal(err)
		}
		if mem > 0 && mem < units.MiB && res.Counters.SpillRuns == 0 {
			b.Fatal("spill benchmark never spilled")
		}
	}
}

// BenchmarkShuffleInMemory is the baseline: unbounded map buffers,
// reduce merges only in-memory runs.
func BenchmarkShuffleInMemory(b *testing.B) { shuffleBench(b, 0) }

// BenchmarkShuffleSpill forces the external path: 16 KiB per-task
// budget, so every map task spills sorted runs to the DFS and every
// reduce streams them back through the k-way merge.
func BenchmarkShuffleSpill(b *testing.B) { shuffleBench(b, 16*units.KiB) }

// BenchmarkTextSplitReader isolates the record reader with the
// split-boundary convention.
func BenchmarkTextSplitReader(b *testing.B) {
	c := testCluster(4, 32*units.KiB)
	var corpus strings.Builder
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&corpus, "line number %d with a realistic length of text\n", i)
	}
	data := []byte(corpus.String())
	if err := c.WriteFile("/bench/lines", "", data); err != nil {
		b.Fatal(err)
	}
	splits, err := buildSplits(c, []string{"/bench/lines"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, s := range splits {
			if err := readRecords(NewDFSStore(c), s, TextInput, "", func(string, []byte) error {
				n++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		if n != 50_000 {
			b.Fatalf("records = %d", n)
		}
	}
}
