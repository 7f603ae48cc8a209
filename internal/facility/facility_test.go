package facility

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/rules"
	"repro/internal/units"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func TestFacilityAssembly(t *testing.T) {
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mounts := f.Layer.Mounts()
	if len(mounts) != 5 { // ddn, ibm, archive, hdfs, s3
		t.Fatalf("mounts = %v", mounts)
	}
	if got := len(f.DFS.DataNodes()); got != 8 {
		t.Fatalf("dfs nodes = %d", got)
	}
}

func TestFacilityEndToEndLifecycle(t *testing.T) {
	// The paper's full loop: ingest -> register -> tag -> workflow ->
	// provenance -> rules replicate, all through one facility.
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Rule: every zebrafish object is replicated into the archive.
	f.Rules.Add(rules.Rule{
		Name:      "archive-raw",
		Event:     rules.OnCreate,
		Condition: rules.ProjectIs("zebrafish"),
		Actions:   []rules.Action{rules.Replicate("/archive")},
	})
	// Trigger: tagging analyze runs a small workflow.
	wf := workflow.New("measure")
	wf.MustAddNode("size", workflow.ActorFunc(func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
		info, err := ctx.Layer.Stat(in["dataset.path"].(string))
		if err != nil {
			return nil, err
		}
		return workflow.Values{"bytes": fmt.Sprint(int64(info.Size))}, nil
	}))
	f.Rules.Add(rules.Rule{Name: "analyze", Event: rules.OnTag, Tag: "analyze",
		Actions: rules.RunWorkflow(wf, nil, 0)})

	cfg := workloads.DefaultMicroscopy()
	cfg.Plates = 1
	cfg.WellsPerPlate = 2
	cfg.ImagesPerFish = 3
	cfg.ImageSize = 2048
	cfg.Channels = []string{"488nm"}
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 4})
	stats, err := pipe.Run(context.Background(), workloads.NewMicroscopy(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Objects) != cfg.TotalImages() {
		t.Fatalf("ingested %d", stats.Objects)
	}

	// Rules replicated everything.
	replicas, err := f.Layer.List("/archive/ddn/itg")
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != cfg.TotalImages() {
		t.Fatalf("replicas = %d, want %d", len(replicas), cfg.TotalImages())
	}

	// Every stored object is registered; tagging one runs the analysis.
	entries, err := f.Layer.List("/ddn/itg")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != cfg.TotalImages() {
		t.Fatalf("browse = %d entries", len(entries))
	}
	ds, ok := f.Meta.ByPath(entries[0].Path)
	if !ok {
		t.Fatalf("%s is not registered", entries[0].Path)
	}
	if err := f.Meta.Tag(ds.ID, "analyze"); err != nil {
		t.Fatal(err)
	}
	ds, _ = f.Meta.Get(ds.ID)
	if len(ds.Processings) != 1 || ds.Processings[0].Results["bytes"] != "2048" {
		t.Fatalf("provenance = %+v", ds.Processings)
	}
}

func TestFacilityMapReduceOnHDFSMount(t *testing.T) {
	f, err := New(Options{DFSBlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Write a corpus through ADAL into the HDFS mount, then run MR on
	// it natively.
	w, err := f.Layer.Create("/hdfs/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fmt.Fprintf(w, "embryo fish embryo line%d\n", i)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := f.RunJob(mapreduce.Config{
		Inputs: []string{"/corpus"}, OutputDir: "/out",
		Mapper: mapreduce.MapperFunc(func(_ string, v []byte, emit mapreduce.Emit) error {
			for _, word := range strings.Fields(string(v)) {
				emit(word, []byte("1"))
			}
			return nil
		}),
		Reducer:  mapreduce.SumReducer(),
		Locality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := mapreduce.ReadTextOutput(f.DFS, res.OutputFiles)
	if out["embryo"][0] != "200" || out["fish"][0] != "100" {
		t.Fatalf("wordcount = %v", out)
	}
	// The MR output is visible through the ADAL mount as well.
	if _, err := f.Layer.Stat("/hdfs/out/part-00000"); err != nil {
		t.Fatal(err)
	}
}

// Options.ShuffleMemory is the facility-wide spill default: jobs that
// don't set their own budget inherit it and run the external shuffle.
func TestFacilityShuffleMemoryDefault(t *testing.T) {
	f, err := New(Options{DFSBlockSize: 256, ShuffleMemory: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var corpus strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&corpus, "spill test words line%d\n", i%13)
	}
	if err := f.DFS.WriteFile("/corpus", "", []byte(corpus.String())); err != nil {
		t.Fatal(err)
	}
	res, err := f.RunJob(mapreduce.Config{
		Inputs: []string{"/corpus"}, OutputDir: "/out",
		Mapper: mapreduce.MapperFunc(func(_ string, v []byte, emit mapreduce.Emit) error {
			for _, word := range strings.Fields(string(v)) {
				emit(word, []byte("1"))
			}
			return nil
		}),
		Reducer: mapreduce.SumReducer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpillRuns == 0 {
		t.Fatalf("facility ShuffleMemory default not inherited: %+v", res.Counters)
	}
	out, _ := mapreduce.ReadTextOutput(f.DFS, res.OutputFiles)
	if out["spill"][0] != "200" {
		t.Fatalf("wordcount = %v", out)
	}
}

func TestScenarioIngestSustains2TBPerDay(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stream := &IngestStream{
		Name: "zebrafish-htm", Src: "daq", Dst: "ddn",
		Size: 4 * units.MB, Rate: units.PerDay(2 * units.TB),
	}
	res := s.RunIngest([]*IngestStream{stream}, 24*time.Hour)
	r := res["zebrafish-htm"]
	if r.Rejected != 0 {
		t.Fatalf("rejected = %d", r.Rejected)
	}
	// A day at 2 TB/day of 4 MB objects = 500k objects, 2 TB.
	if r.Objects < 490_000 || r.Objects > 510_000 {
		t.Fatalf("objects = %d, want ~500k", r.Objects)
	}
	days := float64(r.Bytes) / float64(2*units.TB)
	if days < 0.97 || days > 1.03 {
		t.Fatalf("ingested %v, want ~2TB", r.Bytes.SI())
	}
	if s.DDN.Used() != r.Bytes {
		t.Fatalf("array accounting: used %v vs ingested %v", s.DDN.Used(), r.Bytes)
	}
}

func TestScenarioFillTriggersHSM(t *testing.T) {
	cfg := ScenarioConfig{
		DDNCapacity: 10 * units.TB,
		IBMCapacity: 10 * units.TB,
	}
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the IBM array past its watermark via HSM-managed files.
	for i := 0; i < 95; i++ {
		if err := s.HSM.Store(fmt.Sprintf("run-%03d", i), 100*units.GB); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	s.Eng.RunUntil(48 * time.Hour)
	st := s.HSM.Stats()
	if st.MigratedFiles == 0 {
		t.Fatal("HSM never migrated despite 95% fill")
	}
	if st.DiskUtilization > 0.75 {
		t.Fatalf("disk still at %.2f after migration", st.DiskUtilization)
	}
	if s.Tape.Stats().BytesIn == 0 {
		t.Fatal("tape holds nothing")
	}
}

func TestTransferStudyMatchesPaper(t *testing.T) {
	results := TransferStudy([]TransferCase{
		{Label: "ideal", Bytes: units.PB, Efficiency: 1.0},
		{Label: "realistic", Bytes: units.PB, Efficiency: 0.62},
		{Label: "shared-4", Bytes: units.PB, Efficiency: 1.0, Parallel: 4},
	}, units.Gbps(10))
	if math.Abs(results[0].Days-9.26) > 0.1 {
		t.Fatalf("ideal = %.2f days, want 9.26", results[0].Days)
	}
	if results[1].Days < 14 || results[1].Days > 16 {
		t.Fatalf("realistic = %.2f days, want ~15 (the paper's figure)", results[1].Days)
	}
	if math.Abs(results[2].Days-4*9.26) > 0.5 {
		t.Fatalf("shared-4 = %.2f days, want ~37", results[2].Days)
	}
}

func TestClusterModel(t *testing.T) {
	m := LSDFCluster()
	// The paper's claim: 1 TB in about 20 minutes on 60 nodes.
	minutes := m.TimeFor(units.TB, 60).Minutes()
	if minutes < 18 || minutes > 22 {
		t.Fatalf("1TB on 60 nodes = %.1f min, want ~20", minutes)
	}
	// Speedup monotone and sublinear.
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 60} {
		sp := m.Speedup(n)
		if sp <= prev {
			t.Fatalf("speedup not monotone at %d nodes", n)
		}
		if sp > float64(n) {
			t.Fatalf("superlinear speedup at %d nodes", n)
		}
		prev = sp
	}
}

func TestClusterModelCalibration(t *testing.T) {
	m := ClusterModel{Nodes: 60, PerNodeRate: units.Rate(1), SerialFraction: 0.02}
	// Measured: 8 nodes processed 1 GiB in 10 s.
	m.Calibrate(units.GiB, 10*time.Second, 8)
	got := m.TimeFor(units.GiB, 8)
	if math.Abs(got.Seconds()-10) > 0.01 {
		t.Fatalf("calibrated model disagrees with its own sample: %v", got)
	}
}

func TestGrowthReaches6PBIn2012(t *testing.T) {
	points := RunGrowth(LSDFGrowth())
	if len(points) == 0 {
		t.Fatal("no growth points")
	}
	var installed6PB *GrowthPoint
	for i := range points {
		if points[i].Installed >= 6*units.PB {
			installed6PB = &points[i]
			break
		}
	}
	if installed6PB == nil {
		t.Fatal("capacity never reached 6 PB")
	}
	if y := installed6PB.When.Year(); y != 2012 {
		t.Fatalf("6 PB installed in %d, want 2012 (slide 14)", y)
	}
	// Ingest approaches 6 PB/year by 2014.
	last := points[len(points)-1]
	if last.When.Year() < 2014 {
		t.Fatalf("horizon too short: ends %v", last.When)
	}
	peta := float64(last.IngestPerYear) / float64(units.PB)
	if peta < 5 || peta > 7 {
		t.Fatalf("2014 ingest = %.2f PB/year, want ~6", peta)
	}
	// Stored volume is monotone.
	for i := 1; i < len(points); i++ {
		if points[i].Stored < points[i-1].Stored {
			t.Fatal("stored volume decreased")
		}
	}
}

// TestCompactionDebtAndCostAreScrapable: an operator sees from the
// registry how many WAL records a restart would replay and what the
// snapshots so far have cost, and a checkpoint moves both.
func TestCompactionDebtAndCostAreScrapable(t *testing.T) {
	f, err := New(Options{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 20; i++ {
		if _, err := f.Meta.Create("p", fmt.Sprintf("/ddn/obs/%02d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	read := func() map[string]int64 {
		out := make(map[string]int64)
		for _, p := range f.Obs.Snapshot() {
			if strings.HasPrefix(p.Name, "lsdf_meta_") {
				out[p.Name] = int64(p.Value)
			}
		}
		return out
	}
	before := read()
	if before["lsdf_meta_wal_tail_records"] != 20 || before["lsdf_meta_snapshot_bytes_total"] != 0 {
		t.Fatalf("before the checkpoint: %v, want a tail of 20 records and no snapshot bytes", before)
	}
	if err := f.Meta.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := read()
	if after["lsdf_meta_wal_tail_records"] != 0 || after["lsdf_meta_snapshot_bytes_total"] <= 0 {
		t.Fatalf("after the checkpoint: %v, want no tail and the snapshots' bytes", after)
	}
}
