package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dfs"
	"repro/internal/units"
)

func testCluster(nodes int, blockSize units.Bytes) *dfs.Cluster {
	c := dfs.NewCluster(dfs.Config{BlockSize: blockSize, Replication: 3, Seed: 9})
	for i := 0; i < nodes; i++ {
		rack := fmt.Sprintf("rack%d", i%3)
		if _, err := c.AddDataNode(fmt.Sprintf("dn%02d", i), rack, units.GiB); err != nil {
			panic(err)
		}
	}
	return c
}

// wordCount splits lines on spaces; the canonical Hadoop example.
var wordCountMapper = MapperFunc(func(_ string, value []byte, emit Emit) error {
	for _, w := range strings.Fields(string(value)) {
		emit(w, []byte("1"))
	}
	return nil
})

var sumReducer = ReducerFunc(func(key string, values [][]byte, emit Emit) error {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		sum += n
	}
	emit(key, []byte(strconv.Itoa(sum)))
	return nil
})

func writeCorpus(c *dfs.Cluster, name string, lines []string) error {
	return c.WriteFile(name, "", []byte(strings.Join(lines, "\n")+"\n"))
}

func TestWordCount(t *testing.T) {
	c := testCluster(4, 64)
	lines := []string{
		"fish embryo fish",
		"embryo development toxicology",
		"fish toxicology screen fish",
	}
	if err := writeCorpus(c, "/in/doc", lines); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Name:        "wordcount",
		Inputs:      []string{"/in/doc"},
		OutputDir:   "/out/wc",
		Mapper:      wordCountMapper,
		Reducer:     sumReducer,
		NumReducers: 3,
		Locality:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadTextOutput(c, res.OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"fish": "4", "embryo": "2", "development": "1",
		"toxicology": "2", "screen": "1",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if len(got[k]) != 1 || got[k][0] != w {
			t.Errorf("key %q = %v, want [%s]", k, got[k], w)
		}
	}
	if res.Counters.InputRecords != 3 {
		t.Errorf("input records = %d, want 3", res.Counters.InputRecords)
	}
	if res.Counters.MapOutputRecords != 10 {
		t.Errorf("map output records = %d, want 10", res.Counters.MapOutputRecords)
	}
	if res.Counters.OutputRecords != 5 {
		t.Errorf("output records = %d, want 5", res.Counters.OutputRecords)
	}
}

func TestSplitBoundaryLines(t *testing.T) {
	// Block size 10 forces lines to straddle block boundaries; the
	// TextInputFormat convention must still see each line exactly once.
	c := testCluster(4, 10)
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, fmt.Sprintf("line%02d tail", i))
	}
	if err := writeCorpus(c, "/in/lines", lines); err != nil {
		t.Fatal(err)
	}
	var count int64
	counter := MapperFunc(func(_ string, value []byte, emit Emit) error {
		if len(value) > 0 {
			atomic.AddInt64(&count, 1)
			emit("lines", []byte("1"))
		}
		return nil
	})
	res, err := Run(c, Config{
		Inputs: []string{"/in/lines"}, OutputDir: "/out/lines",
		Mapper: counter, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("mapper saw %d lines, want 50", count)
	}
	got, _ := ReadTextOutput(c, res.OutputFiles)
	if got["lines"][0] != "50" {
		t.Fatalf("count output = %v", got["lines"])
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	corpus := make([]string, 200)
	for i := range corpus {
		corpus[i] = fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%3)
	}
	run := func(nodes, slots int) string {
		c := testCluster(nodes, 128)
		if err := writeCorpus(c, "/in/c", corpus); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/c"}, OutputDir: "/out/c",
			Mapper: wordCountMapper, Reducer: sumReducer,
			NumReducers: 4, SlotsPerNode: slots, Locality: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var all []string
		for _, f := range res.OutputFiles {
			data, err := c.ReadFile(f, "")
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, string(data))
		}
		return strings.Join(all, "|")
	}
	a := run(2, 1)
	b := run(8, 4)
	if a != b {
		t.Fatal("job output depends on parallelism")
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	corpus := make([]string, 300)
	for i := range corpus {
		corpus[i] = "alpha beta gamma alpha"
	}
	run := func(combiner Reducer) Counters {
		c := testCluster(4, 256)
		if err := writeCorpus(c, "/in/c", corpus); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/c"}, OutputDir: "/out/c",
			Mapper: wordCountMapper, Reducer: sumReducer, Combiner: combiner,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := ReadTextOutput(c, res.OutputFiles)
		if got["alpha"][0] != "600" {
			t.Fatalf("alpha = %v, want 600", got["alpha"])
		}
		return res.Counters
	}
	plain := run(nil)
	combined := run(sumReducer)
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Fatalf("combiner did not shrink shuffle: %d vs %d",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
	if combined.CombineInput == 0 || combined.CombineOutput == 0 {
		t.Fatalf("combine counters empty: %+v", combined)
	}
}

func TestLocalityScheduling(t *testing.T) {
	// Delay scheduling makes the local fraction stable (a worker
	// without a local pending task yields up to maxLocalitySkips
	// before going remote), but task grabbing is still a goroutine
	// race, so the threshold is asserted over a few scheduling shapes
	// rather than one interleaving.
	var best float64
	for round := 0; round < 4; round++ {
		c := testCluster(6, 512)
		data := bytes.Repeat([]byte("zebrafish sample line\n"), 500)
		if err := c.WriteFile("/in/big", "dn00", data); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/big"}, OutputDir: "/out/loc",
			Mapper: wordCountMapper, Reducer: sumReducer, Locality: true,
			SlotsPerNode: round + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctr := res.Counters
		if ctr.LocalTasks == 0 {
			t.Fatalf("no local tasks with locality on: %+v", ctr)
		}
		frac := float64(ctr.LocalTasks) / float64(ctr.LocalTasks+ctr.RemoteTasks)
		t.Logf("round %d: local %d / remote %d (%.2f)", round, ctr.LocalTasks, ctr.RemoteTasks, frac)
		if frac > best {
			best = frac
		}
		if best >= 0.5 {
			return
		}
	}
	t.Fatalf("best local fraction = %.2f over 4 shapes, want >= 0.5 with replication 3 on 6 nodes", best)
}

func TestWholeSplitInput(t *testing.T) {
	c := testCluster(4, 100)
	data := patternBytes(950) // 10 splits: 9 full + 1 of 50
	if err := c.WriteFile("/in/bin", "", data); err != nil {
		t.Fatal(err)
	}
	var frames int64
	var total int64
	m := MapperFunc(func(key string, value []byte, emit Emit) error {
		atomic.AddInt64(&frames, 1)
		atomic.AddInt64(&total, int64(len(value)))
		emit("max", []byte{maxByte(value)})
		return nil
	})
	maxReducer := ReducerFunc(func(key string, values [][]byte, emit Emit) error {
		var m byte
		for _, v := range values {
			if v[0] > m {
				m = v[0]
			}
		}
		emit(key, []byte(fmt.Sprintf("%d", m)))
		return nil
	})
	res, err := Run(c, Config{
		Inputs: []string{"/in/bin"}, OutputDir: "/out/bin",
		Mapper: m, Reducer: maxReducer, Format: WholeSplitInput,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames != 10 {
		t.Fatalf("splits seen = %d, want 10", frames)
	}
	if total != 950 {
		t.Fatalf("bytes seen = %d, want 950", total)
	}
	got, _ := ReadTextOutput(c, res.OutputFiles)
	if len(got["max"]) != 1 {
		t.Fatalf("output = %v", got)
	}
}

func patternBytes(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 251)
	}
	return data
}

func maxByte(b []byte) byte {
	var m byte
	for _, x := range b {
		if x > m {
			m = x
		}
	}
	return m
}

func TestMapperErrorRetriesThenFails(t *testing.T) {
	c := testCluster(3, 1024)
	if err := writeCorpus(c, "/in/x", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var calls int64
	m := MapperFunc(func(string, []byte, Emit) error {
		atomic.AddInt64(&calls, 1)
		return boom
	})
	_, err := Run(c, Config{
		Inputs: []string{"/in/x"}, OutputDir: "/out/x",
		Mapper: m, Reducer: sumReducer, MaxAttempts: 3,
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if calls != 3 {
		t.Fatalf("attempts = %d, want 3", calls)
	}
}

func TestTransientErrorRecovered(t *testing.T) {
	c := testCluster(3, 1024)
	if err := writeCorpus(c, "/in/x", []string{"a b"}); err != nil {
		t.Fatal(err)
	}
	var calls int64
	m := MapperFunc(func(_ string, value []byte, emit Emit) error {
		if atomic.AddInt64(&calls, 1) == 1 {
			return errors.New("transient")
		}
		return wordCountMapper(_unused, value, emit)
	})
	res, err := Run(c, Config{
		Inputs: []string{"/in/x"}, OutputDir: "/out/x",
		Mapper: m, Reducer: sumReducer, MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Retries != 1 {
		t.Fatalf("retries = %d, want 1", res.Counters.Retries)
	}
	got, _ := ReadTextOutput(c, res.OutputFiles)
	if got["a"][0] != "1" || got["b"][0] != "1" {
		t.Fatalf("output = %v", got)
	}
}

const _unused = ""

func TestSpeculativeExecution(t *testing.T) {
	c := testCluster(4, 64)
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf("rec%02d data", i))
	}
	if err := writeCorpus(c, "/in/s", lines); err != nil {
		t.Fatal(err)
	}
	// dn00 is pathologically slow: any task placed there stalls long
	// enough that its speculative duplicate on a healthy node wins.
	var slowHits int64
	res, err := Run(c, Config{
		Inputs: []string{"/in/s"}, OutputDir: "/out/s",
		Mapper: wordCountMapper, Reducer: sumReducer,
		Speculative: true, StragglerFactor: 1.5,
		SlotsPerNode: 1,
		TaskDelay: func(node string, task int) time.Duration {
			if node == "dn00" {
				atomic.AddInt64(&slowHits, 1)
				return 400 * time.Millisecond
			}
			return time.Millisecond
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Atomic read: a losing speculative attempt may still be waking up
	// on its injected delay after the job has returned.
	if atomic.LoadInt64(&slowHits) == 0 {
		t.Skip("scheduler never placed a task on the slow node")
	}
	ctr := res.Counters
	if ctr.SpecLaunched == 0 {
		t.Fatalf("no speculative attempts despite straggler: %+v", ctr)
	}
	if ctr.SpecWon == 0 {
		t.Fatalf("speculative attempts never won: %+v", ctr)
	}
	got, _ := ReadTextOutput(c, res.OutputFiles)
	if got["data"][0] != "40" {
		t.Fatalf("speculation corrupted output: %v", got["data"])
	}
}

func TestIdentityReducer(t *testing.T) {
	c := testCluster(3, 1024)
	if err := writeCorpus(c, "/in/i", []string{"k1 k2 k1"}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Inputs: []string{"/in/i"}, OutputDir: "/out/i",
		Mapper: wordCountMapper, // emits (word, "1")
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ReadTextOutput(c, res.OutputFiles)
	if len(got["k1"]) != 2 || len(got["k2"]) != 1 {
		t.Fatalf("identity output = %v", got)
	}
}

func TestMultipleInputFiles(t *testing.T) {
	c := testCluster(4, 128)
	if err := writeCorpus(c, "/in/a", []string{"x y"}); err != nil {
		t.Fatal(err)
	}
	if err := writeCorpus(c, "/in/b", []string{"y z"}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Inputs: []string{"/in/a", "/in/b"}, OutputDir: "/out/m",
		Mapper: wordCountMapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ReadTextOutput(c, res.OutputFiles)
	if got["y"][0] != "2" || got["x"][0] != "1" || got["z"][0] != "1" {
		t.Fatalf("output = %v", got)
	}
}

func TestEmptyInput(t *testing.T) {
	c := testCluster(3, 1024)
	if err := c.WriteFile("/in/empty", "", nil); err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{
		Inputs: []string{"/in/empty"}, OutputDir: "/out/e",
		Mapper: wordCountMapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.InputRecords != 0 {
		t.Fatalf("records = %d", res.Counters.InputRecords)
	}
	// Output files still exist (empty), like Hadoop part files.
	if len(res.OutputFiles) != 1 {
		t.Fatalf("outputs = %v", res.OutputFiles)
	}
}

func TestMissingInput(t *testing.T) {
	c := testCluster(3, 1024)
	_, err := Run(c, Config{
		Inputs: []string{"/nope"}, OutputDir: "/out",
		Mapper: wordCountMapper,
	})
	if !errors.Is(err, dfs.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoMapper(t *testing.T) {
	c := testCluster(3, 1024)
	if _, err := Run(c, Config{Inputs: nil, OutputDir: "/out"}); err == nil {
		t.Fatal("expected error without mapper")
	}
}

// Property: word counts from the MR job equal a straightforward
// sequential count, for any corpus shape and reducer fan-out.
func TestWordCountMatchesSequentialQuick(t *testing.T) {
	f := func(seed uint16, reducers uint8) bool {
		r := int(reducers%4) + 1
		words := []string{"aa", "bb", "cc", "dd", "ee"}
		var lines []string
		expect := map[string]int{}
		n := int(seed%64) + 1
		for i := 0; i < n; i++ {
			w1 := words[(int(seed)+i*3)%len(words)]
			w2 := words[(int(seed)+i*7)%len(words)]
			lines = append(lines, w1+" "+w2)
			expect[w1]++
			expect[w2]++
		}
		c := testCluster(3, 64)
		if err := writeCorpus(c, "/in/q", lines); err != nil {
			return false
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/q"}, OutputDir: "/out/q",
			Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: r,
		})
		if err != nil {
			return false
		}
		got, err := ReadTextOutput(c, res.OutputFiles)
		if err != nil {
			return false
		}
		if len(got) != len(expect) {
			return false
		}
		for k, v := range expect {
			if len(got[k]) != 1 || got[k][0] != strconv.Itoa(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
