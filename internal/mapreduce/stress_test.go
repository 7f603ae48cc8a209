package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Concurrent MapReduce jobs sharing one cluster while scrub and
// node churn run against it — the mapreduce mirror of the DFS 16x4
// stress test. Every job spills (tiny ShuffleMemory), so map spill
// writers, merge readers and reduce output writers all overlap with
// admin mutation of block placement. Run under -race in CI.
func TestConcurrentJobsWithChurnStress(t *testing.T) {
	c := testCluster(8, 2048)
	const jobs = 4
	corpora := make([][]string, jobs)
	expected := make([]map[string]int, jobs)
	for j := range corpora {
		lines := make([]string, 120)
		want := map[string]int{}
		for i := range lines {
			w1 := fmt.Sprintf("j%dw%d", j, i%11)
			w2 := fmt.Sprintf("j%dw%d", j, i%5)
			lines[i] = w1 + " " + w2
			want[w1]++
			want[w2]++
		}
		corpora[j] = lines
		expected[j] = want
		if err := writeCorpus(c, fmt.Sprintf("/stress/in/%d", j), lines); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, jobs+1)
	// Admin churn: scrub passes and a rolling kill/revive cycle, two
	// nodes per pass. Each kill drops the victim's replicas and copies
	// them to other nodes, so placement moves under the jobs' readers
	// and writers. Replication is 3 and one node is down at a time, so
	// every block keeps live replicas; spill readers holding
	// stale location snapshots must refresh and carry on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			c.Scrub()
			for _, victim := range []string{fmt.Sprintf("dn%02d", i%8), fmt.Sprintf("dn%02d", (i+4)%8)} {
				if _, err := c.KillNode(victim); err != nil {
					errc <- fmt.Errorf("admin kill: %w", err)
					return
				}
				if err := c.ReviveNode(victim); err != nil {
					errc <- fmt.Errorf("admin revive: %w", err)
					return
				}
			}
		}
	}()
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			res, err := Run(c, Config{
				Inputs:    []string{fmt.Sprintf("/stress/in/%d", j)},
				OutputDir: fmt.Sprintf("/stress/out/%d", j),
				Mapper:    wordCountMapper, Reducer: SumReducer(),
				NumReducers: 3, Locality: true, MaxAttempts: 4,
				ShuffleMemory: 256,
			})
			if err != nil {
				errc <- fmt.Errorf("job %d: %w", j, err)
				return
			}
			if res.Counters.SpillRuns == 0 {
				errc <- fmt.Errorf("job %d never spilled", j)
				return
			}
			got, err := ReadTextOutput(c, res.OutputFiles)
			if err != nil {
				errc <- fmt.Errorf("job %d output: %w", j, err)
				return
			}
			for k, want := range expected[j] {
				if len(got[k]) != 1 || got[k][0] != strconv.Itoa(want) {
					errc <- fmt.Errorf("job %d: key %q = %v, want %d", j, k, got[k], want)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// Deterministic-output regression: the same spilling job run N times
// across different scheduling shapes produces byte-identical part
// files every time.
func TestSpillDeterministicRepeated(t *testing.T) {
	lines := make([]string, 300)
	for i := range lines {
		lines[i] = fmt.Sprintf("a%d b%d c%d", i%23, i%7, i%41)
	}
	shapes := []struct{ nodes, slots int }{
		{2, 1}, {4, 2}, {8, 4}, {3, 2}, {6, 1},
	}
	var baseline string
	for n, sh := range shapes {
		c := testCluster(sh.nodes, 128)
		if err := writeCorpus(c, "/in/det", lines); err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, Config{
			Inputs: []string{"/in/det"}, OutputDir: "/out/det",
			Mapper: wordCountMapper, Reducer: SumReducer(), Combiner: SumReducer(),
			NumReducers: 4, SlotsPerNode: sh.slots, Locality: true,
			ShuffleMemory: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, f := range res.OutputFiles {
			data, err := c.ReadFile(f, "")
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(data)
			sb.WriteByte('|')
		}
		if n == 0 {
			baseline = sb.String()
			if res.Counters.SpillRuns == 0 {
				t.Fatal("determinism run never spilled")
			}
			continue
		}
		if sb.String() != baseline {
			t.Fatalf("run %d (%d nodes, %d slots): output differs from baseline", n, sh.nodes, sh.slots)
		}
	}
}
