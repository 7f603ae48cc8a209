package databrowser

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/readcache"
	"repro/internal/tiering"
	"repro/internal/units"
	"repro/internal/workflow"
)

func setup(t *testing.T) (*Browser, *adal.Layer, *metadata.Store) {
	t.Helper()
	layer := adal.NewLayer()
	if err := layer.Mount("/", adal.NewMemFS("store")); err != nil {
		t.Fatal(err)
	}
	meta := metadata.NewStore()
	return New(layer, meta), layer, meta
}

func put(t *testing.T, layer *adal.Layer, meta *metadata.Store, path, content string, register bool) {
	t.Helper()
	n, sum, err := layer.WriteChecksummed(path, strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if register {
		if _, err := meta.Create("zebrafish", path, n, sum, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestListJoinsMetadata(t *testing.T) {
	b, layer, meta := setup(t)
	put(t, layer, meta, "/itg/a", "aa", true)
	put(t, layer, meta, "/itg/b", "bbb", false) // unregistered orphan
	entries, err := b.List("/itg")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if !entries[0].Registered || entries[0].DatasetID == "" || entries[0].Project != "zebrafish" {
		t.Fatalf("registered entry = %+v", entries[0])
	}
	if entries[1].Registered {
		t.Fatalf("orphan entry = %+v", entries[1])
	}
}

func TestStatAndDataset(t *testing.T) {
	b, layer, meta := setup(t)
	put(t, layer, meta, "/itg/a", "aa", true)
	e, err := b.Stat("/itg/a")
	if err != nil || e.Size != 2 || !e.Registered {
		t.Fatalf("stat = %+v err=%v", e, err)
	}
	ds, err := b.Dataset("/itg/a")
	if err != nil || ds.Path != "/itg/a" {
		t.Fatalf("dataset = %+v err=%v", ds, err)
	}
	if _, err := b.Dataset("/nope"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTagTriggersWorkflow(t *testing.T) {
	b, layer, meta := setup(t)
	orch := workflow.NewOrchestrator(layer, meta, 0)
	defer orch.Close()
	ran := false
	wf := workflow.New("quick")
	wf.MustAddNode("step", workflow.ActorFunc(func(*workflow.Context, workflow.Values) (workflow.Values, error) {
		ran = true
		return nil, nil
	}))
	orch.AddTrigger(workflow.Trigger{Tag: "analyze", Workflow: wf})

	put(t, layer, meta, "/itg/a", "aa", true)
	// The browser's Tag is the trigger path of slide 12.
	if err := b.Tag("/itg/a", "analyze"); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("tagging via browser did not trigger workflow")
	}
	ds, _ := b.Dataset("/itg/a")
	if len(ds.Processings) != 1 {
		t.Fatalf("provenance = %+v", ds.Processings)
	}
}

func TestUntag(t *testing.T) {
	b, layer, meta := setup(t)
	put(t, layer, meta, "/itg/a", "aa", true)
	if err := b.Tag("/itg/a", "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.Untag("/itg/a", "x"); err != nil {
		t.Fatal(err)
	}
	ds, _ := b.Dataset("/itg/a")
	if ds.HasTag("x") {
		t.Fatal("untag failed")
	}
	if err := b.Tag("/ghost", "x"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPreview(t *testing.T) {
	b, layer, meta := setup(t)
	put(t, layer, meta, "/itg/a", "0123456789", true)
	head, err := b.Preview("/itg/a", 4)
	if err != nil || string(head) != "0123" {
		t.Fatalf("preview = %q err=%v", head, err)
	}
	// Preview longer than object returns the whole object.
	all, err := b.Preview("/itg/a", 100)
	if err != nil || string(all) != "0123456789" {
		t.Fatalf("preview = %q err=%v", all, err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	b, layer, meta := setup(t)
	put(t, layer, meta, "/itg/a", "aa", true)
	put(t, layer, meta, "/itg/b", "bb", true)
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	// GET /list
	resp, err := http.Get(srv.URL + "/list?prefix=/itg")
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(entries) != 2 {
		t.Fatalf("list = %+v", entries)
	}

	// POST /tag then GET /find
	resp, err = http.Post(srv.URL+"/tag?path=/itg/a&tag=hot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tag status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/find?tag=hot")
	if err != nil {
		t.Fatal(err)
	}
	var found []metadata.Dataset
	if err := json.NewDecoder(resp.Body).Decode(&found); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(found) != 1 || found[0].Path != "/itg/a" {
		t.Fatalf("find = %+v", found)
	}

	// GET /dataset
	resp, err = http.Get(srv.URL + "/dataset?path=/itg/a")
	if err != nil {
		t.Fatal(err)
	}
	var ds metadata.Dataset
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ds.HasTag("hot") {
		t.Fatalf("dataset = %+v", ds)
	}

	// 404 handling
	resp, err = http.Get(srv.URL + "/dataset?path=/ghost")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing dataset status = %d", resp.StatusCode)
	}

	// POST /untag
	resp, err = http.Post(srv.URL+"/untag?path=/itg/a&tag=hot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("untag status = %d", resp.StatusCode)
	}
}

func TestFindProxy(t *testing.T) {
	b, layer, meta := setup(t)
	for i := 0; i < 5; i++ {
		put(t, layer, meta, fmt.Sprintf("/f/%d", i), "x", true)
	}
	got := b.Find(metadata.Query{Project: "zebrafish"})
	if len(got) != 5 {
		t.Fatalf("find = %d", len(got))
	}
}

// TestPlacementColumn mounts a tiered backend and checks that List,
// Stat and the web handler surface each object's tier state, while
// untiered mounts keep an empty placement.
func TestPlacementColumn(t *testing.T) {
	layer := adal.NewLayer()
	if err := layer.Mount("/plain", adal.NewMemFS("plain")); err != nil {
		t.Fatal(err)
	}
	tier, err := tiering.New("tier", adal.NewMemFS("hot"), adal.NewMemFS("cold"), tiering.Config{Meta: metadata.NewStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	if err := layer.Mount("/ddn", tier); err != nil {
		t.Fatal(err)
	}
	meta := metadata.NewStore()
	b := New(layer, meta)

	put(t, layer, meta, "/ddn/hot.raw", "stays hot", true)
	put(t, layer, meta, "/ddn/cold.raw", "goes cold", true)
	put(t, layer, meta, "/plain/p.raw", "untiered", true)
	if err := tier.Migrate("/cold.raw"); err != nil {
		t.Fatal(err)
	}

	entries, err := b.List("/ddn")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		got[e.Path] = e.Placement
		if !e.Registered {
			t.Fatalf("%s lost its metadata join: %+v", e.Path, e)
		}
	}
	if got["/ddn/hot.raw"] != "resident" || got["/ddn/cold.raw"] != "migrated" {
		t.Fatalf("placements = %v", got)
	}
	// The migrated row still shows the logical size, not the stub's.
	for _, e := range entries {
		if e.Path == "/ddn/cold.raw" && e.Size != 9 {
			t.Fatalf("migrated size = %d, want logical 9", e.Size)
		}
	}

	e, err := b.Stat("/plain/p.raw")
	if err != nil || e.Placement != "" {
		t.Fatalf("untiered stat = %+v, %v", e, err)
	}

	// The JSON web API carries the field.
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stat?path=/ddn/cold.raw")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var row Entry
	if err := json.NewDecoder(resp.Body).Decode(&row); err != nil {
		t.Fatal(err)
	}
	if row.Placement != "migrated" {
		t.Fatalf("web stat placement = %q", row.Placement)
	}
}

func TestCachedColumnAndStats(t *testing.T) {
	layer := adal.NewLayer()
	meta := metadata.NewStore()
	cache := readcache.New(adal.NewMemFS("inner"), readcache.Config{Memory: units.MiB})
	defer cache.Close()
	if err := layer.Mount("/sites", cache); err != nil {
		t.Fatal(err)
	}
	b := New(layer, meta)

	put(t, layer, meta, "/sites/exp/a.raw", "cached content", true)
	put(t, layer, meta, "/sites/exp/b.raw", "never read", true)
	// Read a.raw through the layer so the cache fills.
	r, err := layer.Open("/sites/exp/a.raw")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r)
	r.Close()

	e, err := b.Stat("/sites/exp/a.raw")
	if err != nil || e.Cached != "memory" {
		t.Fatalf("stat = %+v, %v; want Cached=memory", e, err)
	}
	e, err = b.Stat("/sites/exp/b.raw")
	if err != nil || e.Cached != "" {
		t.Fatalf("unread stat = %+v, %v; want empty Cached", e, err)
	}
	rows, err := b.List("/sites/exp")
	if err != nil || len(rows) != 2 || rows[0].Cached != "memory" || rows[1].Cached != "" {
		t.Fatalf("list = %+v, %v; want the same column on its rows", rows, err)
	}

	stats, ok := b.CacheStats("/sites/exp")
	if !ok || stats["fills"] != 1 {
		t.Fatalf("cache stats = %v/%v, want fills=1", stats, ok)
	}
	if _, ok := b.CacheStats("/nowhere"); ok {
		t.Fatal("CacheStats resolved a missing mount")
	}

	// The JSON web API carries both surfaces.
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stat?path=/sites/exp/a.raw")
	if err != nil {
		t.Fatal(err)
	}
	var row Entry
	err = json.NewDecoder(resp.Body).Decode(&row)
	resp.Body.Close()
	if err != nil || row.Cached != "memory" {
		t.Fatalf("web stat cached = %q, %v", row.Cached, err)
	}
	resp, err = http.Get(srv.URL + "/cache?prefix=/sites")
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]uint64
	err = json.NewDecoder(resp.Body).Decode(&counters)
	resp.Body.Close()
	if err != nil || counters["mem_objects"] != 1 {
		t.Fatalf("web cache counters = %v, %v", counters, err)
	}
	if resp, _ := http.Get(srv.URL + "/cache?prefix=/none"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing-mount cache status = %d", resp.StatusCode)
	}
}
