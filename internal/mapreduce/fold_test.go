package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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
	var tab keyTable
	runs := make([]run, 1)
	var sum, want int
	for i := 0; i < keys*perKey; i++ {
		tab.add(runs, fmt.Sprintf("key%04d", i%keys), []byte(strconv.Itoa(i%7)))
		want += i % 7
	}
	r := runs[0]
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
	arrays := func(r *run) []unsafe.Pointer {
		return []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(r.recs)), unsafe.Pointer(unsafe.SliceData(r.ord)),
			unsafe.Pointer(unsafe.SliceData(r.data)), unsafe.Pointer(unsafe.SliceData(r.ents))}
	}
	held := map[unsafe.Pointer]bool{unsafe.Pointer(unsafe.SliceData(out.mem)): true}
	for i := range out.mem {
		for _, a := range arrays(&out.mem[i]) {
			held[a] = true
		}
	}
	var pooled []*grown
	newGrown := spares.New
	spares.New = nil // Get reports an empty pool
	for sp, ok := spares.Get().(*grown); ok; sp, ok = spares.Get().(*grown) {
		inUse := held[unsafe.Pointer(unsafe.SliceData(sp.runs))]
		for i := range sp.runs {
			for _, a := range arrays(&sp.runs[i]) {
				inUse = inUse || a != nil && held[a]
			}
		}
		if inUse {
			t.Fatal("the pool holds an array of a run kept in memory")
		}
		pooled = append(pooled, sp)
	}
	spares.New = newGrown
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

// sumFunc sums exactly as SumReducer does, but as a ReducerFunc: the
// collector combines through it the way it combines any reducer, by
// buffering the records and walking the ordered run.
var sumFunc = ReducerFunc(func(key string, values *Values, emit Emit) error {
	return SumReducer().Reduce(key, values, emit)
})

// counts are the values the fold tests emit: every form SumReducer
// accepts, and one it does not.
var counts = []string{"1", "+1", " 7 ", "-2", "0", "12", "1"}

// collectorOutput feeds recs to a collector over three partitions,
// cutting its run after every every records (0: never), and describes
// what it holds after finish: its counters, its in-memory runs record
// by record, and its run files byte for byte with their segments.
func collectorOutput(t testing.TB, combiner Reducer, recs [][2]string, every int) (string, error) {
	rt := testRuntime(Config{Combiner: combiner, NumReducers: 3})
	col := newMapCollector(rt, "", 0)
	defer col.release()
	for i, kv := range recs {
		col.add(kv[0], []byte(kv[1]))
		if every > 0 && (i+1)%every == 0 {
			col.spill()
		}
	}
	err := col.finish()
	var out strings.Builder
	fmt.Fprintf(&out, "combined %d into %d, %d runs\n", rt.ctr.CombineInput, rt.ctr.CombineOutput, rt.ctr.SpillRuns)
	for p := range col.out.mem {
		_, derr := drainGroups(&Values{r: &col.out.mem[p]}, nil, func(key string, val []byte) {
			fmt.Fprintf(&out, "%d %q %q\n", p, key, val)
		}, func() error { return nil })
		if derr != nil {
			t.Fatal(derr)
		}
	}
	for _, run := range col.out.spills {
		data, rerr := rt.store.(dfsStore).c.ReadFile(run.File, "")
		if rerr != nil {
			t.Fatal(rerr)
		}
		fmt.Fprintf(&out, "%s %v %q\n", run.File, run.Segs, data)
	}
	rt.discardOutput(&col.out)
	return out.String(), err
}

// foldMatchesCombine holds the fold to the combine path on one record
// sequence: the same runs, segments and counters, or the same error.
func foldMatchesCombine(t testing.TB, recs [][2]string, every int) {
	folded, ferr := collectorOutput(t, SumReducer(), recs, every)
	combined, cerr := collectorOutput(t, sumFunc, recs, every)
	if fmt.Sprint(ferr) != fmt.Sprint(cerr) {
		t.Fatalf("%d records cut every %d: the fold fails with %v, the combine path with %v", len(recs), every, ferr, cerr)
	}
	if ferr == nil && folded != combined {
		t.Fatalf("%d records cut every %d: the fold holds\n%s\nthe combine path\n%s", len(recs), every, folded, combined)
	}
}

// TestFoldMatchesCombine holds the map side's fold of SumReducer to the
// combine path it replaces, on seeded record sequences — whole and cut
// into runs — and on whole jobs: in memory, spilled, shuffled and
// map-only, their part files are byte for byte the same.
func TestFoldMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 40; trial++ {
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(1+rng.Intn(300)))
		recs := make([][2]string, rng.Intn(3_000))
		for i := range recs {
			recs[i] = [2]string{fmt.Sprintf("key-%d", zipf.Uint64()), counts[rng.Intn(len(counts))]}
		}
		foldMatchesCombine(t, recs, []int{0, 1, 97, 500}[trial%4])
	}

	mapper := MapperFunc(func(_ string, line []byte, emit Emit) error {
		for i, w := range bytes.Fields(line) {
			emit.Bytes(w, []byte(counts[(i+len(w))%len(counts)]))
		}
		return nil
	})
	c := testCluster(3, 2*units.KiB)
	if err := writeCorpus(c, "/in/fold", wcCorpus(2_000)); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name    string
		mapOnly bool
		budget  units.Bytes
	}{{"memory", true, 0}, {"spilled", true, 512}, {"shuffled", false, 0}, {"shuffled-spilled", false, 512}} {
		parts := map[string]map[string][]byte{}
		for name, combiner := range map[string]Reducer{"fold": SumReducer(), "combine": sumFunc} {
			res, err := Run(c, Config{
				Inputs: []string{"/in/fold"}, OutputDir: "/out/" + shape.name + "/" + name,
				Mapper: mapper, Combiner: combiner, Reducer: SumReducer(), NumReducers: 2,
				MapOnly: shape.mapOnly, ShuffleMemory: shape.budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			if (res.Counters.SpillRuns > 0) != (shape.budget > 0) || res.Counters.CombineOutput == 0 {
				t.Fatalf("%s/%s: %d spill runs, %d records combined", shape.name, name, res.Counters.SpillRuns, res.Counters.CombineOutput)
			}
			parts[name] = readParts(t, c, res.OutputFiles)
		}
		if len(parts["fold"]) == 0 || len(parts["fold"]) != len(parts["combine"]) {
			t.Fatalf("%s: %d part files folded, %d combined", shape.name, len(parts["fold"]), len(parts["combine"]))
		}
		for name, want := range parts["combine"] {
			if got := parts["fold"][name]; len(want) == 0 || !bytes.Equal(got, want) {
				t.Errorf("%s: %s folded is %d bytes, combined %d, and they differ", shape.name, name, len(got), len(want))
			}
		}
	}
}

// TestFoldFailsAsCombineDoes emits counts that do not parse, in several
// keys and partitions: the fold fails the attempt with the text the
// combine path fails it with, which names the first such key in key
// order and its first such value.
func TestFoldFailsAsCombineDoes(t *testing.T) {
	recs := [][2]string{{"b", "1"}, {"zz", "x"}, {"b", "2y"}, {"a", "3"}, {"b", "z"}, {"m", "1 1"}, {"a", ""}}
	for _, every := range []int{0, 3} {
		foldMatchesCombine(t, recs, every)
		if _, err := collectorOutput(t, SumReducer(), recs, every); err == nil || !strings.Contains(err.Error(), "non-numeric count") {
			t.Errorf("cut every %d: the fold fails with %v", every, err)
		}
	}
}

// FuzzFoldMatchesCombine: whatever the keys and values, and wherever
// the runs are cut, the fold holds what the combine path holds, or
// fails as it does. Each line of recs is one record, key and value
// split at the first tab.
func FuzzFoldMatchesCombine(f *testing.F) {
	f.Add([]byte("a\t1\nb\t+1\na\t 7 \nc\t-2\nb\t1"), uint8(0))
	f.Add([]byte("a\t1\nb\tx\na\ty\n\t1\nb\t"), uint8(2))
	f.Add([]byte("k\t9223372036854775807\nk\t1\nk\t-9223372036854775808"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, every uint8) {
		var recs [][2]string
		for _, line := range strings.Split(string(data), "\n") {
			k, v, _ := strings.Cut(line, "\t")
			recs = append(recs, [2]string{k, v})
		}
		foldMatchesCombine(t, recs, int(every))
	})
}

// TestPartitionHashOncePerKeyPerRun counts the partitioner's FNV-1a
// calls over runs cut every 1 000 records: one per distinct key a run
// holds, whatever the combiner.
func TestPartitionHashOncePerKeyPerRun(t *testing.T) {
	const records, perRun = 10_000, 1_000
	keys := sortInputs(records, 3)["zipf"]
	want := 0
	for lo := 0; lo < records; lo += perRun {
		distinct := map[string]bool{}
		for _, k := range keys[lo : lo+perRun] {
			distinct[k] = true
		}
		want += len(distinct)
	}
	defer func(h func(string) uint32) { partitionHash = h }(partitionHash)
	calls := 0
	partitionHash = func(key string) uint32 { calls++; return fnv1a(key) }
	for name, combiner := range map[string]Reducer{"none": nil, "sum": SumReducer(), "func": sumFunc} {
		calls = 0
		col := newMapCollector(testRuntime(Config{Combiner: combiner, NumReducers: 4}), "", 0)
		for i, k := range keys {
			col.add(k, one)
			if (i+1)%perRun == 0 {
				col.spill()
			}
		}
		if col.err != nil {
			t.Fatal(col.err)
		}
		if calls != want {
			t.Errorf("%s: FNV-1a ran %d times over %d runs of %d distinct keys in all", name, calls, records/perRun, want)
		}
		col.rt.discardOutput(&col.out)
	}
}

// TestWarmCollectorAddsWithoutAllocating adds 10⁵ counts under 10³
// keys to a collector that folds SumReducer, after one such run has
// been emptied: the table, the runs and the totals are all reused.
func TestWarmCollectorAddsWithoutAllocating(t *testing.T) {
	const records, keys = 100_000, 1_000
	words := make([]string, keys)
	for i := range words {
		words[i] = fmt.Sprintf("%024d", i*7919)
	}
	col := newMapCollector(testRuntime(Config{Combiner: SumReducer(), NumReducers: 4}), "", 0)
	fill := func() {
		for i := 0; i < records; i++ {
			col.add(words[i*31%keys], one)
		}
		for p := range col.parts {
			col.parts[p].reset()
		}
		col.keys.reset()
		col.mem = 0
	}
	fill()
	if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
		t.Errorf("a warm collector made %.0f allocations adding %d records under %d keys, want 0", allocs, records, keys)
	}
	if col.err != nil || col.rt.ctr.MapOutputRecords != 5*records {
		t.Fatalf("%v after %d records", col.err, col.rt.ctr.MapOutputRecords)
	}
}

// TestMergeAllocatesNothingPerRecord drains 10 000 distinct keys out of
// a segment through the merge and the group loop: the cursor hands out
// views of its chunks, so the allocations are a few per chunk and none
// per record.
func TestMergeAllocatesNothingPerRecord(t *testing.T) {
	const n = 10_000
	keys, vals := make([]string, n), make([]string, n)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("key-%06d", i), strconv.Itoa(i%10)
	}
	seg := segmentOf(keys, vals...)
	groups := int64(0)
	allocs := testing.AllocsPerRun(3, func() {
		cur := &spillCursor{r: bytes.NewReader(seg), rest: int64(len(seg)), left: n, file: "seg"}
		m, err := newMerger([]mergeSource{{s: cur}})
		if err == nil {
			groups, err = drainGroups(&Values{m: m}, nil, func(string, []byte) {}, func() error { return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if groups != n {
		t.Fatalf("%d groups, want %d", groups, n)
	}
	if chunks := len(seg)/spillReadBuf + 1; allocs > float64(2*chunks+8) {
		t.Errorf("merging %d records of %d chunks made %.0f allocations", n, chunks, allocs)
	}
}
