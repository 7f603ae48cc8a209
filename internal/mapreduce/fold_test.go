package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/units"
)

// TestCombinerFoldsEachRunInPlace folds every run of a map attempt with
// a combiner that reads one value of each group, leaves the rest, and
// emits two records — one under a key that sorts before the group's.
// Each run, kept in memory or written out under a budget that cuts it
// every perRun records, holds per partition exactly what a reference
// fold of its records gives: a stable sort, the first value of each
// key, and the emits stably sorted again.
func TestCombinerFoldsEachRunInPlace(t *testing.T) {
	const records, perRun, parts = 3_000, 700, 2
	keys := sortInputs(records, 5)["zipf"] // 24-byte keys; collect's values are 4 bytes
	firstOnly := ReducerFunc(func(key string, values *Values, emit Emit) error {
		v, ok := values.Next()
		if !ok {
			return errors.New("empty group")
		}
		emit("#"+key, v)
		emit(key, v)
		return values.Err()
	})
	reference := func(lo, hi, p int) []string {
		var idx []int
		for i := lo; i < hi; i++ {
			if int(fnv1a(keys[i])%parts) == p {
				idx = append(idx, i)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		var out []string
		for j, i := range idx {
			if j == 0 || keys[i] != keys[idx[j-1]] {
				out = append(out, fmt.Sprintf("#%s=%d", keys[i], i), fmt.Sprintf("%s=%d", keys[i], i))
			}
		}
		sort.SliceStable(out, func(a, b int) bool {
			return out[a][:strings.IndexByte(out[a], '=')] < out[b][:strings.IndexByte(out[b], '=')]
		})
		return out
	}
	record := func(key string, val []byte) string {
		return fmt.Sprintf("%s=%d", key, binary.BigEndian.Uint32(val))
	}

	for mode, budget := range map[string]units.Bytes{"memory": 0, "spilled": perRun * (24 + 4 + kvOverhead)} {
		col := newMapCollector(testRuntime(Config{Combiner: firstOnly, NumReducers: parts, ShuffleMemory: budget}), "", 0)
		collect(col, keys)
		if err := col.finish(); err != nil {
			t.Fatal(err)
		}
		runs := 1
		if budget > 0 {
			runs = (records + perRun - 1) / perRun
			if col.out.mem != nil || len(col.out.spills) != runs {
				t.Fatalf("%s: %d runs on the store, want all %d", mode, len(col.out.spills), runs)
			}
		}
		for ri := 0; ri < runs; ri++ {
			for p := 0; p < parts; p++ {
				var got []string
				if budget == 0 {
					_, err := drainGroups(&Values{r: &col.out.mem[p]}, nil, func(key string, val []byte) {
						got = append(got, record(key, val))
					}, func() error { return nil })
					if err != nil {
						t.Fatal(err)
					}
				} else {
					run := col.out.spills[ri]
					cur, err := openSpillCursor(col.rt.store, run.File, run.Segs[p], "")
					for err == nil && cur != nil {
						key, val, ok, nerr := cur.next()
						if err = nerr; !ok {
							break
						}
						got = append(got, record(key, val))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				lo, hi := 0, records
				if budget > 0 {
					lo, hi = ri*perRun, min((ri+1)*perRun, records)
				}
				if want := reference(lo, hi, p); !slices.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Fatalf("%s: run %d partition %d folds to %d records, the reference to %d; they part at record %d",
						mode, ri, p, len(got), len(want), i)
				}
			}
		}
	}
}

// TestSumReducerAllocatesNothingPerGroup folds 1 000 keys × 5 counts
// through SumReducer: its total is formatted into the Values it reads,
// not into a buffer of its own per group.
func TestSumReducerAllocatesNothingPerGroup(t *testing.T) {
	const keys, perKey = 1_000, 5
	var r run
	var sum, want int
	for i := 0; i < keys*perKey; i++ {
		key := fmt.Sprintf("key%04d", i%keys)
		r.add(fnv1a(key), key, []byte(strconv.Itoa(i%7)))
		want += i % 7
	}
	r.order()
	emit := func(_ string, v []byte) { n, _ := strconv.Atoi(string(v)); sum += n }
	allocs := testing.AllocsPerRun(3, func() {
		sum = 0
		if _, err := drainGroups(&Values{r: &r}, SumReducer(), emit, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if sum != want {
		t.Fatalf("the totals sum to %d, want %d", sum, want)
	}
	if allocs > 16 {
		t.Errorf("summing %d groups made %.0f allocations, want at most 16", keys, allocs)
	}
}

// TestSmallJobAfterLargeCountsRight runs a large wordcount and then a
// small one in the same process: the small job's map attempts take the
// large one's arrays, and its counts are still exactly its own.
func TestSmallJobAfterLargeCountsRight(t *testing.T) {
	c := testCluster(3, 4*units.KiB)
	job := func(name string, lines []string) map[string][]string {
		if err := writeCorpus(c, "/in/"+name, lines); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/" + name}, OutputDir: "/out/" + name,
			Mapper: MapperFunc(countWords), Combiner: SumReducer(), Reducer: SumReducer(), NumReducers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadTextOutput(c, res.OutputFiles)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := job("large", wcCorpus(20_000)); len(got) < 20_000 {
		t.Fatalf("the large job counted %d distinct words", len(got))
	}
	small := []string{"fish embryo fish", "embryo tile"}
	want := map[string][]string{"fish": {"2"}, "embryo": {"2"}, "tile": {"1"}}
	if got := job("small", small); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after a large job, the small one counts %v, want %v", got, want)
	}
}

// TestInMemoryRunIsNotReleased runs a map-only attempt whose one run
// stays in memory as its output: none of the run's arrays is in the
// pool the next attempt takes from, and a shuffled attempt run before
// the output is written does not change it.
func TestInMemoryRunIsNotReleased(t *testing.T) {
	cfg := Config{Mapper: MapperFunc(countWords), MapOnly: true, NumReducers: 2}
	rt := testRuntime(cfg)
	rt.progress, rt.cancelled = func(float64) {}, func() bool { return false }
	if err := writeCorpus(rt.store.(dfsStore).c, "/in/mem", wcCorpus(2_000)); err != nil {
		t.Fatal(err)
	}
	size, err := rt.store.Stat("/in/mem")
	if err != nil {
		t.Fatal(err)
	}
	s := split{file: "/in/mem", length: size}
	out, err := rt.executeMap("", 0, s)
	if err != nil || out.mem == nil {
		t.Fatalf("map-only attempt: %v, in-memory run %v", err, out != nil && out.mem != nil)
	}
	held := map[unsafe.Pointer]bool{}
	for _, r := range out.mem {
		held[unsafe.Pointer(unsafe.SliceData(r.recs))] = true
		held[unsafe.Pointer(unsafe.SliceData(r.ord))] = true
	}
	var pooled []*spare
	for sp, ok := spares.Get().(*spare); ok; sp, ok = spares.Get().(*spare) {
		if held[unsafe.Pointer(unsafe.SliceData(sp.recs))] || held[unsafe.Pointer(unsafe.SliceData(sp.ord))] {
			t.Fatal("the pool holds an array of a run kept in memory")
		}
		pooled = append(pooled, sp)
	}
	for _, sp := range pooled {
		spares.Put(sp)
	}

	write := func(name string) []byte {
		if err := rt.writeMapOutput(name, "", 0, out); err != nil {
			t.Fatal(err)
		}
		data, err := rt.store.(dfsStore).c.ReadFile(name, "")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("/out/before")
	other := testRuntime(Config{Mapper: MapperFunc(countWords), Combiner: SumReducer(), NumReducers: 2})
	other.spillAll, other.progress, other.cancelled = true, rt.progress, rt.cancelled
	other.store = rt.store
	if _, err := other.executeMap("", 1, s); err != nil {
		t.Fatal(err)
	}
	if got := write("/out/after"); string(got) != string(want) {
		t.Errorf("the in-memory run's output changed after another attempt ran: %d bytes, was %d", len(got), len(want))
	}
}
