package mapreduce

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/units"
)

// partBytes concatenates a job's part files in output order — the
// byte-identity oracle for spill-vs-in-memory comparisons.
func partBytes(t *testing.T, c *dfs.Cluster, files []string) string {
	t.Helper()
	var sb strings.Builder
	for _, f := range files {
		data, err := c.ReadFile(f, "")
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(data)
		sb.WriteByte('|')
	}
	return sb.String()
}

// Property (seeded, no wall-clock): for randomized jobs, the spill
// path (tiny ShuffleMemory) produces byte-identical part files to the
// in-memory path (huge ShuffleMemory), across shuffled scheduling
// shapes (different node counts, slot counts, reducer fan-out held
// fixed per trial).
func TestSpillMatchesInMemoryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20110711))
	words := []string{"zebrafish", "embryo", "plate", "well", "kmer", "slab", "tape", "adal"}
	for trial := 0; trial < 12; trial++ {
		nLines := rng.Intn(150) + 20
		lines := make([]string, nLines)
		for i := range lines {
			w := make([]string, rng.Intn(6)+1)
			for j := range w {
				w[j] = words[rng.Intn(len(words))] + strconv.Itoa(rng.Intn(9))
			}
			lines[i] = strings.Join(w, " ")
		}
		reducers := rng.Intn(4) + 1
		withCombiner := rng.Intn(2) == 0
		run := func(nodes, slots int, shuffleMem units.Bytes) (string, Counters) {
			c := testCluster(nodes, 256)
			if err := writeCorpus(c, "/in/prop", lines); err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Inputs: []string{"/in/prop"}, OutputDir: "/out/prop",
				Mapper: wordCountMapper, Reducer: SumReducer(),
				NumReducers: reducers, SlotsPerNode: slots, Locality: true,
				ShuffleMemory: shuffleMem,
			}
			if withCombiner {
				cfg.Combiner = SumReducer()
			}
			res, err := Run(c, cfg)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return partBytes(t, c, res.OutputFiles), res.Counters
		}
		memOut, memCtr := run(rng.Intn(5)+2, rng.Intn(3)+1, units.GiB)
		spillOut, spillCtr := run(rng.Intn(5)+2, rng.Intn(3)+1, 256)
		if memCtr.SpillRuns != 0 {
			t.Fatalf("trial %d: in-memory run spilled %d runs", trial, memCtr.SpillRuns)
		}
		if spillCtr.SpillRuns == 0 {
			t.Fatalf("trial %d: spill run never spilled (%d lines)", trial, nLines)
		}
		if memOut != spillOut {
			t.Fatalf("trial %d (reducers=%d combiner=%v): spill output differs from in-memory\nmem:   %q\nspill: %q",
				trial, reducers, withCombiner, memOut, spillOut)
		}
		checkGoldenBytes(t, fmt.Sprintf("spill-property/%02d", trial), map[string][]byte{"parts": []byte(memOut)})
	}
}

// Acceptance: a job whose intermediate volume is >= 8x ShuffleMemory
// completes, spills, and matches the in-memory output bytes.
func TestSpillEightTimesBudget(t *testing.T) {
	const budget = 4 * units.KiB
	lines := make([]string, 1500)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha%d beta%d gamma%d delta%d epsilon%d zeta%d",
			i%89, i%53, i%31, i, i%211, i%7)
	}
	run := func(mem units.Bytes) (string, Counters) {
		c := testCluster(5, units.KiB)
		if err := writeCorpus(c, "/in/big", lines); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/big"}, OutputDir: "/out/big",
			Mapper: wordCountMapper, Reducer: SumReducer(),
			NumReducers: 3, Locality: true, ShuffleMemory: mem,
		})
		if err != nil {
			t.Fatal(err)
		}
		return partBytes(t, c, res.OutputFiles), res.Counters
	}
	memOut, memCtr := run(units.GiB)
	spillOut, ctr := run(budget)
	if ctr.ShuffleBytes < int64(8*budget) {
		t.Fatalf("intermediate volume %d < 8x budget %d — test corpus too small", ctr.ShuffleBytes, 8*budget)
	}
	if ctr.SpillRuns == 0 || ctr.SpillBytes == 0 {
		t.Fatalf("no spills under budget: %+v", ctr)
	}
	if ctr.MergeStreams <= memCtr.MergeStreams {
		t.Fatalf("spilling did not widen the merge: %d streams vs %d", ctr.MergeStreams, memCtr.MergeStreams)
	}
	if memOut != spillOut {
		t.Fatal("spill output differs from in-memory output")
	}
	t.Logf("volume=%d budget=%d spillRuns=%d spillBytes=%d mergeStreams=%d",
		ctr.ShuffleBytes, budget, ctr.SpillRuns, ctr.SpillBytes, ctr.MergeStreams)
}

// Map-only jobs take the same spill/merge path; their part-m files
// must also be byte-identical to the in-memory path — including with
// a combiner, where spilled runs are combined per run and must be
// re-folded at write time.
func TestMapOnlySpillMatchesInMemory(t *testing.T) {
	lines := make([]string, 120)
	for i := range lines {
		lines[i] = fmt.Sprintf("rec%03d value%d", i, i%7)
	}
	run := func(mem units.Bytes, combiner Reducer) string {
		c := testCluster(4, 512)
		if err := writeCorpus(c, "/in/mo", lines); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/mo"}, OutputDir: "/out/mo",
			Mapper: wordCountMapper, MapOnly: true, ShuffleMemory: mem,
			Combiner: combiner,
		})
		if err != nil {
			t.Fatal(err)
		}
		return partBytes(t, c, res.OutputFiles)
	}
	if a, b := run(units.GiB, nil), run(128, nil); a != b {
		t.Fatalf("map-only spill output differs:\nmem:   %q\nspill: %q", a, b)
	}
	if a, b := run(units.GiB, SumReducer()), run(128, SumReducer()); a != b {
		t.Fatalf("map-only spill output differs with combiner:\nmem:   %q\nspill: %q", a, b)
	}
}

// failingWriter injects a DFS write failure after passing through a
// few bytes, mid-part-file.
type failingWriter struct {
	w       io.Writer
	after   int
	written int
	err     error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.after {
		return 0, f.err
	}
	f.written += len(p)
	return f.w.Write(p)
}

// An induced DFS write failure inside a reduce task retries under
// MaxAttempts, increments Retries, and still produces correct output.
func TestReduceWriteFailureRetries(t *testing.T) {
	boom := errors.New("injected dfs write failure")
	c := testCluster(4, 256)
	lines := make([]string, 80)
	for i := range lines {
		lines[i] = fmt.Sprintf("w%d w%d", i%9, i%4)
	}
	if err := writeCorpus(c, "/in/rf", lines); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Inputs: []string{"/in/rf"}, OutputDir: "/out/rf",
		Mapper: wordCountMapper, Reducer: SumReducer(),
		NumReducers: 2, MaxAttempts: 3, ShuffleMemory: 256,
		reduceWriter: func(part, attempt int, node string, w io.Writer) io.Writer {
			if part == 0 && attempt == 1 {
				return &failingWriter{w: w, after: 8, err: boom}
			}
			return w
		},
	})
	if err != nil {
		t.Fatalf("job failed despite retry budget: %v", err)
	}
	if res.Counters.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Counters.Retries)
	}
	got, err := ReadTextOutput(c, res.OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	if got["w0"][0] == "" {
		t.Fatalf("output missing after retry: %v", got)
	}
}

// Exhausted reduce attempts surface the wrapped error.
func TestReduceFailureExhaustsAttempts(t *testing.T) {
	boom := errors.New("injected dfs write failure")
	c := testCluster(3, 256)
	if err := writeCorpus(c, "/in/re", []string{"a b a"}); err != nil {
		t.Fatal(err)
	}
	_, err := Run(c, Config{
		Inputs: []string{"/in/re"}, OutputDir: "/out/re",
		Mapper: wordCountMapper, Reducer: SumReducer(),
		NumReducers: 1, MaxAttempts: 3,
		reduceWriter: func(part, attempt int, node string, w io.Writer) io.Writer {
			return &failingWriter{w: w, after: 0, err: boom}
		},
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped injected failure", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want attempt count in message", err)
	}
}

// Reduce workers honor the per-node slot budget: with SlotsPerNode=1
// on 2 nodes, no node ever runs two reduce attempts at once.
func TestReduceSlotScheduling(t *testing.T) {
	c := testCluster(2, 512)
	lines := make([]string, 60)
	for i := range lines {
		lines[i] = fmt.Sprintf("k%d v", i)
	}
	if err := writeCorpus(c, "/in/slots", lines); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	active := map[string]int{}
	maxActive := map[string]int{}
	parts := 0
	res, err := Run(c, Config{
		Inputs: []string{"/in/slots"}, OutputDir: "/out/slots",
		Mapper: wordCountMapper, Reducer: SumReducer(),
		NumReducers: 8, SlotsPerNode: 1,
		reduceHook: func(part, attempt int, node string) func() {
			mu.Lock()
			parts++
			active[node]++
			if active[node] > maxActive[node] {
				maxActive[node] = active[node]
			}
			mu.Unlock()
			time.Sleep(time.Millisecond) // widen the overlap window
			return func() {
				mu.Lock()
				active[node]--
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if parts != 8 {
		t.Fatalf("reduce attempts = %d, want 8", parts)
	}
	for node, m := range maxActive {
		if m > 1 {
			t.Fatalf("node %s ran %d concurrent reduce attempts with SlotsPerNode=1", node, m)
		}
	}
	if res.Counters.ReduceTasks != 8 {
		t.Fatalf("reduce tasks = %d", res.Counters.ReduceTasks)
	}
}

// Spill files are cleaned out of the DFS once the job returns (losing
// speculative attempts delete their own; this job has none).
func TestSpillFilesCleanedUp(t *testing.T) {
	c := testCluster(4, 256)
	lines := make([]string, 200)
	for i := range lines {
		lines[i] = fmt.Sprintf("word%d word%d", i%13, i%7)
	}
	if err := writeCorpus(c, "/in/clean", lines); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Inputs: []string{"/in/clean"}, OutputDir: "/out/clean",
		Mapper: wordCountMapper, Reducer: SumReducer(),
		NumReducers: 2, ShuffleMemory: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpillRuns == 0 {
		t.Fatal("job never spilled; cleanup untested")
	}
	for _, fi := range c.List("/out/clean") {
		if strings.Contains(fi.Name, "_shuffle") {
			t.Fatalf("leftover spill file %s after job", fi.Name)
		}
	}
}
