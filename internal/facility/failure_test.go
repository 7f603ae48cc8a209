package facility

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/units"
	"repro/internal/workloads"
)

// Failure-injection integration tests: the behaviours that make a
// facility trustworthy are the ones under faults.

func TestMapReduceSurvivesDatanodeLoss(t *testing.T) {
	f, err := New(Options{DFSNodes: 8, DFSBlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var corpus strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&corpus, "embryo fish record%04d\n", i)
	}
	if err := f.DFS.WriteFile("/corpus", "dn000", []byte(corpus.String())); err != nil {
		t.Fatal(err)
	}
	// Kill the node holding first replicas before the job runs: the
	// namenode re-replicates and the job reads surviving copies.
	if _, err := f.DFS.KillNode("dn000"); err != nil {
		t.Fatal(err)
	}
	res, err := f.RunJob(mapreduce.Config{
		Inputs: []string{"/corpus"}, OutputDir: "/out",
		Mapper: mapreduce.MapperFunc(func(_ string, v []byte, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(string(v)) {
				emit(w, []byte("1"))
			}
			return nil
		}),
		Reducer:  mapreduce.SumReducer(),
		Locality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mapreduce.ReadTextOutput(f.DFS, res.OutputFiles)
	if err != nil {
		t.Fatal(err)
	}
	if out["embryo"][0] != "400" || out["fish"][0] != "400" {
		t.Fatalf("output after node loss = %v", out)
	}
}

func TestScrubAfterCorruptionKeepsFacilityData(t *testing.T) {
	f, err := New(Options{DFSNodes: 6, DFSBlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte(strings.Repeat("precious bytes ", 200))
	if err := f.DFS.WriteFile("/keep", "dn001", data); err != nil {
		t.Fatal(err)
	}
	for _, id := range f.DFS.BlockIDsOn("dn001") {
		f.DFS.CorruptReplica("dn001", id)
	}
	rep := f.DFS.Scrub()
	if rep.CorruptDropped == 0 || rep.Unrecoverable != 0 {
		t.Fatalf("scrub = %+v", rep)
	}
	got, err := f.DFS.ReadFile("/keep", "")
	if err != nil || string(got) != string(data) {
		t.Fatalf("data lost: %v", err)
	}
}

func TestIngestIntoObjectStoreMount(t *testing.T) {
	f, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := workloads.DefaultMicroscopy()
	cfg.PathPrefix = "/s3/itg" // straight into the slide-14 object store
	cfg.Plates = 1
	cfg.WellsPerPlate = 2
	cfg.ImagesPerFish = 2
	cfg.ImageSize = 1024
	cfg.Channels = []string{"488nm"}
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 2})
	stats, err := pipe.Run(context.Background(), workloads.NewMicroscopy(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Objects) != cfg.TotalImages() {
		t.Fatalf("ingested %d", stats.Objects)
	}
	// The namespace lists the object store like any mount, each entry
	// registered under its mounted path, with bytes that hash to the
	// checksum its registration carries.
	entries, err := f.Layer.List("/s3/itg")
	if err != nil || len(entries) != cfg.TotalImages() {
		t.Fatalf("browse = %d entries, err %v", len(entries), err)
	}
	for _, e := range entries {
		ds, ok := f.Meta.ByPath(e.Path)
		if !ok {
			t.Fatalf("%s is not joined with metadata", e.Path)
		}
		sum, err := f.Layer.Checksum(e.Path)
		if err != nil {
			t.Fatalf("object %s: %v", e.Path, err)
		}
		if sum != ds.Checksum {
			t.Fatalf("stored bytes/checksum mismatch for %s", e.Path)
		}
		if e.Size != units.Bytes(1024) {
			t.Fatalf("size = %v", e.Size)
		}
	}
	// A ranged read works through the mount too.
	rc, err := f.Layer.OpenRange(context.Background(), entries[0].Path, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if head, err := io.ReadAll(rc); err != nil || len(head) != 16 {
		t.Fatalf("preview: %d bytes, %v", len(head), err)
	}
}
