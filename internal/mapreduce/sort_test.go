package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/mrpc"
	"repro/internal/units"
)

// sortInputs builds the key shapes a map-side run takes: uniform,
// Zipf-duplicated (a wordcount's), all-equal, already sorted and
// reversed.
func sortInputs(n int, seed int64) map[string][]string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n/8+1))
	gen := []struct {
		name string
		key  func(i int) string
	}{
		{"uniform", func(int) string { return fmt.Sprintf("k%012d", rng.Int63n(int64(n)*4+1)) }},
		{"zipf", func(int) string { return fmt.Sprintf("word-%019d", zipf.Uint64()) }},
		{"equal", func(int) string { return "same" }},
		{"sorted", func(i int) string { return fmt.Sprintf("k%012d", i/3) }},
		{"reversed", func(i int) string { return fmt.Sprintf("k%012d", (n-i)/3) }},
	}
	out := make(map[string][]string, len(gen))
	for _, g := range gen {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = g.key(i)
		}
		out[g.name] = keys
	}
	return out
}

// testRuntime is an attempt's runtime over a one-node store, enough
// of one to collect, spill and merge a map task's output.
func testRuntime(cfg Config) *taskRuntime {
	return &taskRuntime{
		store: NewDFSStore(testCluster(1, 64*units.KiB)), cfg: cfg.withDefaults(),
		ctr: &mrpc.TaskCounters{}, shufDir: "/shuffle", spillTag: "t-",
	}
}

// collect emits every key with its emission index as the value — the
// record's identity, so a wrong tie order shows.
func collect(col *mapCollector, keys []string) {
	var idx [4]byte
	for i, k := range keys {
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		col.add(k, idx[:])
	}
}

// TestStableSortMatchesSliceStable holds the collector's order to the
// sort it replaced: what a task's output yields is the sequence of (key,
// record identity) sort.SliceStable produces — from one in-memory run,
// across spill boundaries that fall in the middle of a key's records,
// and through a combiner that passes every value on.
func TestStableSortMatchesSliceStable(t *testing.T) {
	passOn := ReducerFunc(func(key string, values *Values, emit Emit) error {
		for v, ok := values.Next(); ok; v, ok = values.Next() {
			emit(key, v)
		}
		return values.Err()
	})
	for _, n := range []int{0, 1, 2, 17, 1_000, 100_000} {
		for name, keys := range sortInputs(n, int64(n)+1) {
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })
			budget := units.Bytes(1)
			if n > 0 {
				budget = units.Bytes(n*(len(keys[0])+4+kvOverhead)/4 + 1) // about four runs
			}
			for mode, cfg := range map[string]Config{
				"memory":   {},
				"spilled":  {ShuffleMemory: budget},
				"combined": {Combiner: passOn, ShuffleMemory: budget},
			} {
				col := newMapCollector(testRuntime(cfg), "", 0)
				collect(col, keys)
				if err := col.finish(); err != nil {
					t.Fatal(err)
				}
				if mode != "memory" && n >= 1_000 && len(col.out.spills) < 2 {
					t.Fatalf("%s/%s n=%d: %d spills, want the order to cross run boundaries", name, mode, n, len(col.out.spills))
				}
				vals := &Values{}
				srcs, _, err := openSources(context.Background(), col.rt.store, col.out.spills, 0, 0, "", nil)
				if col.out.mem != nil { // one run: walked in place
					vals.r = &col.out.mem[0]
				} else if err == nil {
					vals.m, err = newMerger(srcs)
				}
				i := 0
				if err == nil {
					_, err = drainGroups(vals, nil, func(key string, val []byte) {
						if i == n {
							t.Fatalf("%s/%s n=%d: the task yields more than %d records", name, mode, n, n)
						}
						if w, got := want[i], int(binary.BigEndian.Uint32(val)); key != keys[w] || got != w {
							t.Fatalf("%s/%s n=%d: record %d is (%q, #%d), sort.SliceStable has (%q, #%d)",
								name, mode, n, i, key, got, keys[w], w)
						}
						i++
					}, func() error { return nil })
				}
				if err != nil {
					t.Fatal(err)
				}
				if i != n {
					t.Fatalf("%s/%s n=%d: the task yields %d records, want %d", name, mode, n, i, n)
				}
				closeSources(srcs)
			}
		}
	}
}

// TestBufferedRecordCost bounds what the collector holds per buffered
// record, ordering included: twelve bytes of offsets, the value, four
// bytes of order and the slack of doubling — 32 B a record plus a term
// in the distinct keys (bytes, table entry, slots, rank). A pair of
// string and slice headers with a heap key cost about 90 B for a
// 24-byte key however often the key repeated.
func TestBufferedRecordCost(t *testing.T) {
	const n = 100_000
	for name, keys := range sortInputs(n, 7) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		col := newMapCollector(testRuntime(Config{}), "", 0)
		collect(col, keys)
		col.parts[0].order()
		runtime.GC()
		runtime.ReadMemStats(&after)
		distinct := len(col.parts[0].ents)
		got, bound := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(32*n+96*distinct+64<<10)
		if got > bound {
			t.Errorf("%s: %d records of %d keys hold %d B, want at most %d", name, n, distinct, got, bound)
		}
		runtime.KeepAlive(col)
	}
}
