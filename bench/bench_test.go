package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
)

// benchmarkJSON is the driver's file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json saying
// the same thing: workloads, metrics, units, directions, bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, spec default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec %+v", i, g, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := b.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec %+v", i, g, m)
		}
	}
}

func toyConfig(t *testing.T, workload string, seed int64) runConfig {
	return runConfig{Workload: workload, Seed: seed, Seconds: 0.4, Trace: true, OutDir: t.TempDir(), Size: toySize}
}

// TestOpsDigest: the generated inputs are a function of the seed alone.
func TestOpsDigest(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			e, err := newEnv(toyConfig(t, w.Name, seed))
			if err != nil {
				t.Fatal(err)
			}
			defer e.cancel()
			return e.digest()
		}
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.Name, a, b)
		}
		if a, b := digest(7), digest(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.Name, a)
		}
	}
}

// TestToyWorkloads runs every workload at toy scale, traced pass
// included, and checks that every metric BENCHMARK.json names comes
// out: present, finite, in the declared unit — in the result and in
// the driver's line.
func TestToyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five facilities; skipped with -short")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := toyConfig(t, w.Name, 3)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, m := range b.EndToEnd {
				v, ok := res.EndToEnd[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite value in %s", m.Name, v, ok, m.Unit)
				}
			}
			for i, m := range b.PerLayer {
				v, ok := res.PerLayer[m.Name]
				if applies := perLayer[i].appliesTo(w.Name); ok != applies {
					t.Errorf("per-layer %s: reported %v, applies to %s %v", m.Name, ok, w.Name, applies)
				}
				if ok && (v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
					t.Errorf("per-layer %s = %+v, want a finite value in %s", m.Name, v, m.Unit)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
			for traced, want := range map[bool]int{false: len(b.EndToEnd), true: len(b.PerLayer)} {
				var line struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(resultLine(res, traced)), &line); err != nil {
					t.Fatal(err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != want {
					t.Errorf("trace=%v: result line has %d metrics, want %d, and correct/attempted/failed", traced, len(line.Metrics), want)
				}
			}
		})
	}
}

// ---- negative checks: the checkers must count these as failures --------

func TestFlippedByteFailsPayloadCheck(t *testing.T) {
	p := newPayloads(5)
	obj := objID(spaceCold, 0, 9)
	data := p.make(obj, 4*stampBlock)
	const off = 2 * stampBlock
	if !p.check(data[off:], obj, off) {
		t.Fatal("intact range rejected")
	}
	if p.check(data[off:], obj, off-stampBlock) || p.check(data[off:], obj+1, off) {
		t.Error("range accepted at the wrong offset or for the wrong object")
	}
	for _, i := range []int{off, off + 15, off + 16, off + stampBlock + 4711, len(data) - 1} {
		data[i] ^= 0x01
		if p.check(data[off:], obj, off) {
			t.Errorf("flipped byte at %d not noticed", i)
		}
		data[i] ^= 0x01
	}
}

func TestLostAckFailsRecoveryCheck(t *testing.T) {
	mem := durafs.NewMem()
	opts := metadata.Options{WALDir: "/wal", FS: mem}
	store, err := metadata.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var acked []ack
	for _, p := range []string{"/sites/ing/a", "/sites/ing/b", "/sites/ing/c"} {
		ds, err := store.Create(ingestProject, p, ingestObjSize, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, ack{Path: p, ID: ds.ID})
	}
	// The facility loses one dataset it had acknowledged.
	if err := store.Delete(acked[1].ID); err != nil {
		t.Fatal(err)
	}
	store.Close()
	reopened, err := metadata.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	found := checkRecovered(acked, func(path string) (string, bool) {
		ds, ok := reopened.ByPath(path)
		return ds.ID, ok
	})
	if found != 2 {
		t.Errorf("found %d of 3 acked datasets, want 2: the deleted one must count as lost", found)
	}
}

func TestWrongCountFailsWordcountCheck(t *testing.T) {
	_, tally := makeCorpus(11, 8<<10)
	var words []string
	for w := range tally {
		words = append(words, w)
	}
	sort.Strings(words)
	var parts [2]strings.Builder
	for i, w := range words {
		parts[i%2].WriteString(w + "\t" + strconv.Itoa(tally[w]) + "\n")
	}
	good := [][]byte{[]byte(parts[0].String()), []byte(parts[1].String())}
	if !checkWordcount(good, tally) {
		t.Fatal("exact output rejected")
	}
	word := words[0]
	off := strings.Replace(parts[0].String(), word+"\t"+strconv.Itoa(tally[word])+"\n", word+"\t"+strconv.Itoa(tally[word]+1)+"\n", 1)
	if checkWordcount([][]byte{[]byte(off), good[1]}, tally) {
		t.Error("a count that is one off was accepted")
	}
	if checkWordcount(good[:1], tally) {
		t.Error("a missing part file was accepted")
	}
}

// ---- the benchmark's own arithmetic -------------------------------------

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.add("batch", 0, -1, at(0), 100*time.Millisecond)
	tr.add("fsync", 0, parent, at(10), 30*time.Millisecond) // 10..40
	tr.add("fsync", 0, parent, at(20), 40*time.Millisecond) // 20..60, overlaps
	tr.add("fsync", 0, parent, at(70), 10*time.Millisecond) // 70..80
	if got := tr.selfs("batch"); len(got) != 1 || got[0] != float64(40*time.Millisecond) {
		t.Errorf("self = %v, want 40ms (100 - union of 10..60 and 70..80)", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(ops float64, rounds ...float64) *ledger {
		l := &ledger{}
		for _, w := range workloads {
			r := &result{Workload: w.Name, Correct: true, Attempted: 100, EndToEnd: map[string]metricValue{}}
			for _, m := range endToEnd {
				r.EndToEnd[m.Name] = metricValue{Value: 1, Unit: m.Unit, Rounds: []float64{1, 1, 1, 1, 1}}
			}
			r.EndToEnd["ops_per_s"] = metricValue{Value: ops, Unit: "1/s", Rounds: rounds}
			l.Workloads = append(l.Workloads, r)
		}
		return l
	}
	verdict := func(old, cur *ledger) string {
		for _, r := range compareLedgers(old, cur) {
			if r.Workload == "read-hot" && r.Metric == "ops_per_s" {
				return r.Verdict
			}
		}
		return "missing"
	}
	steady := []float64{100, 100, 100, 100, 100}
	if v := verdict(mk(100, steady...), mk(97, 97, 97, 97, 97, 97)); v != "ok" {
		t.Errorf("3%% slower, steady rounds: %s, want ok", v)
	}
	if v := verdict(mk(100, steady...), mk(70, 70, 70, 70, 70, 70)); v != "worse" {
		t.Errorf("30%% slower, steady rounds: %s, want worse", v)
	}
	if v := verdict(mk(100, 60, 140, 80, 130, 90), mk(80, 80, 80, 80, 80, 80)); v != "unresolved" {
		t.Errorf("20%% slower, rounds all over the place: %s, want unresolved", v)
	}
	if v := verdict(mk(100, 140, 120, 100, 80, 60), mk(70, 98, 84, 70, 56, 42)); v != "worse" {
		t.Errorf("30%% slower, rounds drifting on a straight line: %s, want worse (drift is not noise)", v)
	}
	lost := mk(100, steady...)
	lost.Workloads[0].Failed = 1
	if rows := compareLedgers(mk(100, steady...), lost); !printRows(&strings.Builder{}, rows) {
		t.Error("one more failed op was not reported as worse")
	}

	// The selfcheck wants both runs clean and within the bounds in
	// either order.
	selfcheck := func(a, b *ledger) int { return selfcheckFailures(&strings.Builder{}, a, b) }
	if n := selfcheck(mk(100, steady...), mk(97, steady...)); n != 0 {
		t.Errorf("selfcheck of two clean runs 3%% apart: %d findings, want 0", n)
	}
	if n := selfcheck(lost, mk(100, steady...)); n != 1 {
		t.Errorf("selfcheck with a failed op in the first run only: %d findings, want 1", n)
	}
	unrecovered := mk(100, steady...)
	unrecovered.Workloads[2].Correct = false
	if n := selfcheck(unrecovered, mk(100, steady...)); n != 1 {
		t.Errorf("selfcheck with a lost dataset in the first run only: %d findings, want 1", n)
	}
	if n := selfcheck(mk(70, steady...), mk(100, steady...)); n != len(workloads) {
		t.Errorf("selfcheck with a 30%% slower first run: %d findings, want one per workload", n)
	}
}
