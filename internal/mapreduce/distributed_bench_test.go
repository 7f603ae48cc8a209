package mapreduce

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/mrpc"
)

// BenchmarkTaskRPC prices the control plane itself, per transport: a
// map-only job on one idle worker, so each task pays the full
// heartbeat-assign/execute/complete round trip with almost no compute
// inside. ns/task is the overhead a real task amortizes; http minus
// direct is what the sockets cost.
func BenchmarkTaskRPC(b *testing.B) {
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			c := testCluster(2, 512)
			if err := writeCorpus(c, "/in/doc", wcCorpus(64)); err != nil {
				b.Fatal(err)
			}
			m := tr.startMaster(b, MasterConfig{Cluster: c, Heartbeat: time.Millisecond})
			tr.startWorkers(b, c, m, 1, nil)

			var tasks int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, err := m.Submit(mrpc.JobSpec{
					Name: "grep-the", Inputs: []string{"/in/doc"},
					OutputDir: fmt.Sprintf("/out/%d", i),
				}, "bench")
				if err != nil {
					b.Fatal(err)
				}
				res, err := j.Wait()
				if err != nil {
					b.Fatal(err)
				}
				tasks += res.Counters.MapTasks
			}
			b.StopTimer()
			if tasks > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tasks), "ns/task")
			}
		})
	}
}

// stragglerRun executes one wordcount on 4 workers where worker 0
// crawls at stepDelay per record (a 10x straggler), with speculation on
// or off, checks the output against the engine's recorded bytes and
// returns the wall time and counters.
func stragglerRun(tb testing.TB, tr transport, speculative bool, run int) (time.Duration, *Result) {
	tb.Helper()
	c := testCluster(4, 1024)
	if err := writeCorpus(c, "/in/doc", wcCorpus(240)); err != nil {
		tb.Fatal(err)
	}
	m := startMaster(tb, tr, c)
	ws := tr.startWorkers(tb, c, m, 4, map[int]time.Duration{0: 4 * time.Millisecond})
	name := "wc"
	if speculative {
		name = "wc-spec"
	}
	j, err := m.Submit(mrpc.JobSpec{
		Name: name, Inputs: []string{"/in/doc"},
		OutputDir: fmt.Sprintf("/out/r%d", run), NumReducers: 2,
	}, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	res, err := j.Wait()
	if err != nil {
		tb.Fatal(err)
	}
	wall := time.Since(start)
	checkGolden(tb, "straggler", c, res.OutputFiles)
	for _, w := range ws {
		w.Close()
	}
	m.Close()
	return wall, res
}

// BenchmarkStragglerSpecOff measures the straggler tail with
// speculation disabled: the job ends when the 10x-slow worker finally
// drains its share.
func BenchmarkStragglerSpecOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stragglerRun(b, transports[0], false, i)
	}
}

// BenchmarkStragglerSpecOn is the same cluster with speculative
// backups: stragglers are raced by copies on idle fast workers and
// the first finisher commits.
func BenchmarkStragglerSpecOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stragglerRun(b, transports[0], true, i)
	}
}

// TestSpeculationTailCut pins the perf headline: with one worker at a
// fraction of fleet speed, speculative execution must cut job wall
// time by at least 1.5x. Medians over 3 runs absorb scheduler noise.
func TestSpeculationTailCut(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	eachTransport(t, func(t *testing.T, tr transport) {
		median := func(speculative bool) time.Duration {
			walls := make([]time.Duration, 3)
			for i := range walls {
				wall, res := stragglerRun(t, tr, speculative, len(walls)*100+i)
				if speculative && res.Counters.SpecLaunched == 0 {
					t.Log("warning: speculative run launched no backups")
				}
				walls[i] = wall
			}
			slices.Sort(walls)
			return walls[1]
		}
		off := median(false)
		on := median(true)
		ratio := float64(off) / float64(on)
		t.Logf("straggler tail: spec off %v, spec on %v (%.2fx)", off, on, ratio)
		if ratio < 1.5 {
			t.Errorf("speculation cut the tail %.2fx, want >= 1.5x", ratio)
		}
	})
}
