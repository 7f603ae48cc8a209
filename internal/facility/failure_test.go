package facility

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/objectstore"
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
	// Objects live in the bucket with ETags; metadata checksums match
	// the store's own content hash (both SHA-256 of the bytes).
	infos, err := f.ObjectStore.List("lsdf", objectstore.ListOptions{Prefix: "itg/"})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != cfg.TotalImages() {
		t.Fatalf("bucket holds %d objects", len(infos))
	}
	for _, ds := range f.Meta.Find(metadata.Query{Project: "zebrafish"}) {
		key := strings.TrimPrefix(ds.Path, "/s3/")
		head, err := f.ObjectStore.Head("lsdf", key)
		if err != nil {
			t.Fatalf("object %s: %v", key, err)
		}
		if head.ETag != ds.Checksum {
			t.Fatalf("etag/checksum mismatch for %s", key)
		}
		if head.Size != units.Bytes(1024) {
			t.Fatalf("size = %v", head.Size)
		}
	}
	// The DataBrowser sees the object store like any mount.
	entries, err := f.Browser.List("/s3/itg")
	if err != nil || len(entries) != cfg.TotalImages() {
		t.Fatalf("browse = %d entries, err %v", len(entries), err)
	}
	if !entries[0].Registered {
		t.Fatal("object-store entries not joined with metadata")
	}
	// Preview works through the adapter too.
	head, err := f.Browser.Preview(entries[0].Path, 16)
	if err != nil || len(head) != 16 {
		t.Fatalf("preview: %v", err)
	}
}
