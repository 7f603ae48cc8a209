package lsdf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/rules"
	"repro/internal/units"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func TestStoreQueryTagLifecycle(t *testing.T) {
	fc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	ds, err := fc.Store("zebrafish", "/ddn/itg/img1.raw",
		strings.NewReader("pixels"), map[string]string{"well": "A1"}, "raw")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Checksum == "" || !ds.HasTag("raw") {
		t.Fatalf("dataset = %+v", ds)
	}
	r, err := fc.Open("/ddn/itg/img1.raw")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if string(data) != "pixels" {
		t.Fatalf("read = %q", data)
	}
	got := fc.Query(metadata.Query{Project: "zebrafish", Tags: []string{"raw"}})
	if len(got) != 1 || got[0].ID != ds.ID {
		t.Fatalf("query = %+v", got)
	}
}

func TestStoreDuplicateCleansUp(t *testing.T) {
	fc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if _, err := fc.Store("p", "/ddn/x", strings.NewReader("1"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Store("p", "/ddn/x", strings.NewReader("2"), nil); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestTriggerAndRuleViaFacade(t *testing.T) {
	fc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	wf := workflow.New("count")
	wf.MustAddNode("n", workflow.ActorFunc(func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
		return workflow.Values{"seen": "yes"}, nil
	}))
	fc.AddRule(rules.Rule{Name: "go", Event: rules.OnTag, Tag: "go",
		Actions: rules.RunWorkflow(wf, nil, 0)})
	fc.AddRule(rules.Rule{
		Name: "replicate", Event: rules.OnCreate,
		Actions: []rules.Action{rules.Replicate("/archive")},
	})

	ds, err := fc.Store("p", "/ddn/obj", strings.NewReader("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Layer().Stat("/archive/ddn/obj"); err != nil {
		t.Fatalf("rule did not replicate: %v", err)
	}
	if err := fc.Tag("/ddn/obj", "go"); err != nil {
		t.Fatal(err)
	}
	got, _ := fc.Metadata().Get(ds.ID)
	if len(got.Processings) != 1 || got.Processings[0].Results["seen"] != "yes" {
		t.Fatalf("provenance = %+v", got.Processings)
	}
}

// TestAsyncFacilityTriggersAfterFlush: with AsyncEvents the Tag call
// returns before the workflow runs; Flush is the barrier after which
// every trigger and its provenance write are visible — including
// firings handed to the rule engine's executor (AsyncWorkflows),
// which register with the flush barrier via HoldFlush.
func TestAsyncFacilityTriggersAfterFlush(t *testing.T) {
	fc, err := New(Options{AsyncEvents: true, MetadataShards: 4, AsyncWorkflows: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	wf := workflow.New("seg")
	wf.MustAddNode("n", workflow.ActorFunc(func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
		return workflow.Values{"seen": "yes"}, nil
	}))
	fc.AddRule(rules.Rule{Name: "analyze", Event: rules.OnTag, Tag: "analyze",
		Actions: rules.RunWorkflow(wf, nil, 0)})

	const n = 20
	var ids []string
	for i := 0; i < n; i++ {
		ds, err := fc.Store("p", fmt.Sprintf("/ddn/a/%03d", i), strings.NewReader("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ds.ID)
		if err := fc.Tag(ds.Path, "analyze"); err != nil {
			t.Fatal(err)
		}
	}
	fc.Flush()
	for _, id := range ids {
		got, _ := fc.Metadata().Get(id)
		if len(got.Processings) != 1 || got.Processings[0].Results["seen"] != "yes" {
			t.Fatalf("dataset %s: provenance = %+v", id, got.Processings)
		}
		if !got.HasTag("processed:seg") {
			t.Fatalf("dataset %s missing completion tag", id)
		}
	}
	if got := fc.Query(metadata.Query{Tags: []string{"processed:seg"}}); len(got) != n {
		t.Fatalf("processed = %d", len(got))
	}
}

// TestStoreBatchViaFacade: the batched store path registers, tags,
// and rolls back a failed item's stored bytes without touching the
// other items in the batch.
func TestStoreBatchViaFacade(t *testing.T) {
	fc, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	// A metadata claim with no stored bytes: the write will succeed
	// and registration will fail, forcing the rollback branch.
	if _, err := fc.Metadata().Create("p", "/ddn/claimed", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	objs := []ingest.Object{
		{Project: "p", Path: "/ddn/b/0", Data: strings.NewReader("aa"), Tags: []string{"raw"}},
		{Project: "p", Path: "/ddn/claimed", Data: strings.NewReader("orphan")},
		{Project: "p", Path: "/ddn/b/1", Data: strings.NewReader("bbb")},
	}
	res := fc.StoreBatch(objs)
	for _, i := range []int{0, 2} {
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
	}
	if !errors.Is(res[1].Err, metadata.ErrDuplicate) {
		t.Fatalf("item 1: err = %v, want ErrDuplicate", res[1].Err)
	}
	// The failed item's bytes were rolled back; the good items stayed.
	if _, err := fc.Open("/ddn/claimed"); err == nil {
		t.Fatal("orphan bytes not rolled back")
	}
	if r, err := fc.Open("/ddn/b/1"); err != nil {
		t.Fatalf("good item lost: %v", err)
	} else {
		r.Close()
	}
	if res[0].Dataset.Size != 2 || !res[0].Dataset.HasTag("raw") || res[0].Dataset.Checksum == "" {
		t.Fatalf("batched dataset = %+v", res[0].Dataset)
	}
	if got := fc.Query(metadata.Query{Project: "p"}); len(got) != 3 {
		t.Fatalf("registered = %d", len(got))
	}
}

func TestIngestAndMapReduceViaFacade(t *testing.T) {
	fc, err := New(Options{DFSBlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	cfg := workloads.DefaultMicroscopy()
	cfg.Plates = 1
	cfg.WellsPerPlate = 2
	cfg.ImagesPerFish = 2
	cfg.ImageSize = 256
	cfg.Channels = []string{"488nm"}
	stats, err := fc.Ingest(context.Background(), workloads.NewMicroscopy(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Objects) != cfg.TotalImages() {
		t.Fatalf("objects = %d", stats.Objects)
	}

	// MR job over a corpus placed on the cluster.
	var corpus strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&corpus, "fish embryo %d\n", i)
	}
	w, err := fc.Layer().Create("/hdfs/corpus")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, corpus.String())
	w.Close()
	res, err := fc.RunJob(mapreduce.Config{
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
	out, _ := mapreduce.ReadTextOutput(fc.Cluster(), res.OutputFiles)
	if out["fish"][0] != "50" {
		t.Fatalf("wordcount = %v", out)
	}
	rep := fc.ClusterReport()
	if rep.Files == 0 || rep.Used == 0 {
		t.Fatalf("report = %+v", rep)
	}
	_ = units.Bytes(0)
}
