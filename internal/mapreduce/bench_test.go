package mapreduce

import (
	"fmt"
	"strconv"
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
			Mapper: wordCountMapper, Reducer: sumReducer, Combiner: sumReducer,
			NumReducers: 4, Locality: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapCollect emits one map-side partition of each key shape —
// 10k records; zipf under 24-byte keys is the benchmark workload's —
// into a collector and orders the run: the intern table, the buffers,
// the sort of the distinct keys and the scatter.
func BenchmarkMapCollect(b *testing.B) {
	for _, shape := range []string{"uniform", "zipf", "equal", "sorted", "reversed"} {
		keys, rt := sortInputs(10_000, 1)[shape], testRuntime(Config{})
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col := newMapCollector(rt, "", 0)
				collect(col, keys)
				if err := col.orderAndCombine(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shuffleBench runs one wordcount with a configurable spill budget
// and reduce interface — the spill-vs-in-memory measurement pair.
func shuffleBench(b *testing.B, mem units.Bytes, streaming bool) {
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
		cfg := Config{
			Inputs: []string{"/bench/shuffle"}, OutputDir: "/bench/sout",
			Mapper: wordCountMapper, NumReducers: 4, Locality: true,
			ShuffleMemory: mem,
		}
		if streaming {
			cfg.StreamReducer = streamSumBench
		} else {
			cfg.Reducer = sumReducer
		}
		b.StartTimer()
		res, err := Run(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if mem > 0 && mem < units.MiB && res.Counters.SpillRuns == 0 {
			b.Fatal("spill benchmark never spilled")
		}
	}
}

var streamSumBench = StreamReducerFunc(func(key string, values *Values, emit Emit) error {
	sum := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		sum += n
	}
	if err := values.Err(); err != nil {
		return err
	}
	emit(key, []byte(strconv.Itoa(sum)))
	return nil
})

// BenchmarkShuffleInMemory is the baseline: unbounded map buffers,
// reduce merges only in-memory runs.
func BenchmarkShuffleInMemory(b *testing.B) { shuffleBench(b, 0, false) }

// BenchmarkShuffleSpill forces the external path: 16 KiB per-task
// budget, so every map task spills sorted runs to the DFS and every
// reduce streams them back through the k-way merge.
func BenchmarkShuffleSpill(b *testing.B) { shuffleBench(b, 16*units.KiB, false) }

// BenchmarkShuffleSpillStream is the spill path with a streaming
// reducer — no per-group [][]byte materialization.
func BenchmarkShuffleSpillStream(b *testing.B) { shuffleBench(b, 16*units.KiB, true) }

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
