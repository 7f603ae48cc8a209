package mapreduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// sortInputs builds the key shapes a map-side run takes: uniform,
// Zipf-duplicated (a wordcount's), all-equal, already sorted and
// reversed. Every record carries its own one-byte value, so &val[0]
// names the record and a wrong tie order shows.
func sortInputs(n int, seed int64) map[string][]kv {
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
	out := make(map[string][]kv, len(gen))
	for _, g := range gen {
		pairs := make([]kv, n)
		for i := range pairs {
			pairs[i] = kv{key: g.key(i), val: []byte{byte(i)}}
		}
		out[g.name] = pairs
	}
	return out
}

// TestStableSortMatchesSliceStable holds the kernel to the sort it
// replaced: the same sequence of (key, record identity), so every run,
// spill boundary and output byte is what sort.SliceStable produced.
func TestStableSortMatchesSliceStable(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1_000, 100_000} {
		for name, pairs := range sortInputs(n, int64(n)+1) {
			want := append([]kv(nil), pairs...)
			sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
			stableSortByKey(pairs)
			for i := range want {
				if pairs[i].key != want[i].key || &pairs[i].val[0] != &want[i].val[0] {
					t.Fatalf("%s n=%d: record %d is (%q, %p), sort.SliceStable has (%q, %p)",
						name, n, i, pairs[i].key, &pairs[i].val[0], want[i].key, &want[i].val[0])
				}
			}
		}
	}
}

// TestStableSortScratchIsFourBytesPerRecord rules out a record-sized
// scratch slice: sorting n 40-byte records may allocate an index
// permutation, not a second []kv.
func TestStableSortScratchIsFourBytesPerRecord(t *testing.T) {
	const n = 100_000
	for name, pairs := range sortInputs(n, 7) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stableSortByKey(pairs)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*n {
			t.Errorf("%s: sorting %d records allocated %d B, want at most %d", name, n, got, 8*n)
		}
	}
}
