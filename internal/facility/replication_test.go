package facility

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/metadata"
	"repro/internal/rules"
)

// TestFacilityMultiSiteReplication wires the whole stack: ingest
// through the mount table registers datasets, the metadata event bus
// drives the replication engine, the catalogue records the replica
// sites, and a site outage is invisible to readers.
func TestFacilityMultiSiteReplication(t *testing.T) {
	f, err := New(Options{
		Sites:       []string{"kit", "gridka", "desy"},
		MinReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const objects = 8
	objs := make([]*ingest.Object, objects)
	for i := range objs {
		objs[i] = &ingest.Object{
			Project: "aaa",
			Path:    fmt.Sprintf("/sites/run/%03d", i),
			Data:    bytes.NewReader(bytes.Repeat([]byte{byte(i)}, 16*1024)),
		}
	}
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 4})
	if _, err := pipe.Run(context.Background(), &ingest.SliceProducer{Objects: objs}); err != nil {
		t.Fatal(err)
	}
	f.Replicator.Wait()

	for i := 0; i < objects; i++ {
		rel := fmt.Sprintf("/run/%03d", i)
		if n := len(f.Meta.ValidSites("/sites" + rel)); n < 2 {
			t.Fatalf("%s: %d valid replicas, want >= 2", rel, n)
		}
	}

	// The catalogue's replica sites, and the registration, of a path
	// ingested through the ordinary mount table.
	if sites := f.Meta.ValidSites("/sites/run/000"); len(sites) < 2 {
		t.Fatalf("valid sites of /sites/run/000 = %v, want >= 2", sites)
	}
	if _, ok := f.Meta.ByPath("/sites/run/000"); !ok {
		t.Fatal("ingest did not register /sites/run/000")
	}

	// Kill the nearest site: reads keep working through the same
	// federated path, and the catalog recovers MinReplicas.
	f.FedSites[0].SetDown(true)
	for i := 0; i < objects; i++ {
		path := fmt.Sprintf("/sites/run/%03d", i)
		r, err := f.Layer.Open(path)
		if err != nil {
			t.Fatalf("read %s during outage: %v", path, err)
		}
		data, err := io.ReadAll(r)
		r.Close()
		if err != nil || len(data) != 16*1024 {
			t.Fatalf("read %s during outage: %d bytes, err %v", path, len(data), err)
		}
	}
	f.Replicator.Wait()
	f.FedSites[0].SetDown(false)
	f.Replicator.Reconcile()
	f.Replicator.Wait()
	for i := 0; i < objects; i++ {
		rel := fmt.Sprintf("/run/%03d", i)
		if n := len(f.Meta.ValidSites("/sites" + rel)); n < 2 {
			t.Fatalf("%s after revive: %d valid replicas", rel, n)
		}
	}
}

// TestRulesDriveReplication exercises the rules integration both
// ways: an OnTag rule schedules the tagged dataset's replicas, and an
// OnReplica rule observes the catalog's event stream.
func TestRulesDriveReplication(t *testing.T) {
	f, err := New(Options{
		Sites:       []string{"a", "b"},
		MinReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	f.Rules.Add(rules.Rule{
		Name:  "replicate-on-demand",
		Event: rules.OnTag,
		Tag:   "replicate",
		Actions: []rules.Action{rules.ActionFunc{
			Label: "ensure-replicas",
			Fn: func(_ *rules.Context, ds metadata.Dataset) error {
				f.Replicator.EnsureFederated(ds.Path)
				return nil
			},
		}},
	})
	f.Rules.Add(rules.Rule{
		Name:    "note-valid-replicas",
		Event:   rules.OnReplica,
		State:   "valid",
		Actions: []rules.Action{rules.AddTag("geo-replicated")},
	})

	// Write directly (no metadata registration), then register
	// without the create event reaching the engine first... simplest:
	// register and let the tag drive a redundant Ensure.
	if _, _, err := f.Layer.WriteChecksummed("/sites/exp/x", strings.NewReader("rule-driven")); err != nil {
		t.Fatal(err)
	}
	ds, err := f.Meta.Create("proj", "/sites/exp/x", 11, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Meta.Tag(ds.ID, "replicate"); err != nil {
		t.Fatal(err)
	}
	f.Replicator.Wait()
	f.Meta.Flush()

	if n := len(f.Meta.ValidSites("/sites/exp/x")); n != 2 {
		t.Fatalf("valid = %d, want 2", n)
	}
	got, _ := f.Meta.Get(ds.ID)
	if !got.HasTag("geo-replicated") {
		t.Fatalf("OnReplica rule did not fire; tags = %v", got.Tags)
	}
	// The engine's singleflight absorbed the create-event/rule race.
	if st := f.Replicator.Stats(); st.Transfers != 1 {
		t.Fatalf("transfers = %d, want 1 (%+v)", st.Transfers, st)
	}
}
