package metadata

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestCreateAndGet(t *testing.T) {
	s := NewStore()
	d, err := s.Create("zebrafish", "/itg/plate1/img0001.raw", 4*units.MB, "abc123",
		map[string]string{"wavelength": "488nm", "well": "A1"})
	if err != nil {
		t.Fatal(err)
	}
	if d.ID == "" || d.Version != 1 {
		t.Fatalf("dataset = %+v", d)
	}
	got, ok := s.Get(d.ID)
	if !ok || got.Basic["well"] != "A1" || got.Size != 4*units.MB {
		t.Fatalf("get = %+v, %v", got, ok)
	}
	if _, ok := s.ByPath("/itg/plate1/img0001.raw"); !ok {
		t.Fatal("ByPath miss")
	}
}

func TestDuplicatePath(t *testing.T) {
	s := NewStore()
	if _, err := s.Create("p", "/x", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("p", "/x", 1, "", nil); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestBasicMetadataIsolation(t *testing.T) {
	s := NewStore()
	basic := map[string]string{"k": "v"}
	d, err := s.Create("p", "/x", 1, "", basic)
	if err != nil {
		t.Fatal(err)
	}
	basic["k"] = "mutated" // caller's map must not alias the store
	got, _ := s.Get(d.ID)
	if got.Basic["k"] != "v" {
		t.Fatal("store aliased caller's basic map")
	}
	got.Basic["k"] = "hacked" // snapshot must not alias either
	again, _ := s.Get(d.ID)
	if again.Basic["k"] != "v" {
		t.Fatal("snapshot aliased store state")
	}
}

func TestTagUntag(t *testing.T) {
	s := NewStore()
	d, _ := s.Create("p", "/x", 1, "", nil)
	if err := s.Tag(d.ID, "raw"); err != nil {
		t.Fatal(err)
	}
	if err := s.Tag(d.ID, "raw"); err != nil { // idempotent
		t.Fatal(err)
	}
	got, _ := s.Get(d.ID)
	if !got.HasTag("raw") || got.Version != 2 {
		t.Fatalf("after tag: %+v", got)
	}
	if err := s.Untag(d.ID, "raw"); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(d.ID)
	if got.HasTag("raw") {
		t.Fatal("untag failed")
	}
	if err := s.Tag("ghost", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestProcessingChain(t *testing.T) {
	s := NewStore()
	d, _ := s.Create("zebrafish", "/img", 4*units.MB, "", nil)
	// The paper's METADATA 1..N model: multiple independent
	// processing passes, each with params and results.
	for i := 1; i <= 3; i++ {
		pid, err := s.AddProcessing(d.ID, Processing{
			Tool:    fmt.Sprintf("segmentation-v%d", i),
			Params:  map[string]string{"threshold": fmt.Sprint(i * 10)},
			Results: map[string]string{"cells": fmt.Sprint(100 * i)},
			Outputs: []string{fmt.Sprintf("/results/img.seg%d", i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if pid == "" {
			t.Fatal("empty processing id")
		}
	}
	got, _ := s.Get(d.ID)
	if len(got.Processings) != 3 {
		t.Fatalf("processings = %d", len(got.Processings))
	}
	if got.Processings[1].Results["cells"] != "200" {
		t.Fatalf("chain = %+v", got.Processings)
	}
	if got.Version != 4 {
		t.Fatalf("version = %d, want 4", got.Version)
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	d, _ := s.Create("p", "/x", 1, "", nil)
	if err := s.Tag(d.ID, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(d.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(d.ID); ok {
		t.Fatal("dataset survived delete")
	}
	if got := s.Find(Query{Tags: []string{"t"}}); len(got) != 0 {
		t.Fatalf("tag index stale: %v", got)
	}
	if err := s.Delete(d.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFindByProjectAndTag(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		proj := "katrin"
		if i%2 == 0 {
			proj = "zebrafish"
		}
		d, _ := s.Create(proj, fmt.Sprintf("/d/%02d", i), 1, "", nil)
		if i%3 == 0 {
			if err := s.Tag(d.ID, "calibration"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Find(Query{Project: "zebrafish"}); len(got) != 5 {
		t.Fatalf("by project = %d", len(got))
	}
	if got := s.Find(Query{Tags: []string{"calibration"}}); len(got) != 4 {
		t.Fatalf("by tag = %d", len(got))
	}
	got := s.Find(Query{Project: "zebrafish", Tags: []string{"calibration"}})
	if len(got) != 2 { // i = 0, 6
		t.Fatalf("conjunction = %d", len(got))
	}
	if got := s.Find(Query{PathPrefix: "/d/0"}); len(got) != 10 {
		t.Fatalf("prefix = %d", len(got))
	}
	if got := s.Find(Query{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit = %d", len(got))
	}
}

func TestFindByBasicAndTime(t *testing.T) {
	now := time.Date(2011, 5, 20, 12, 0, 0, 0, time.UTC)
	i := 0
	s := NewStoreWith(Options{Clock: func() time.Time {
		i++
		return now.Add(time.Duration(i) * time.Hour)
	}})
	for j := 0; j < 5; j++ {
		if _, err := s.Create("p", fmt.Sprintf("/t/%d", j), 1, "",
			map[string]string{"well": fmt.Sprintf("A%d", j%2)}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Find(Query{Basic: map[string]string{"well": "A0"}})
	if len(got) != 3 {
		t.Fatalf("basic filter = %d", len(got))
	}
	got = s.Find(Query{CreatedAfter: now.Add(150 * time.Minute)})
	if len(got) != 3 { // hours 3,4,5
		t.Fatalf("time filter = %d", len(got))
	}
	got = s.Find(Query{CreatedBefore: now.Add(150 * time.Minute)})
	if len(got) != 2 {
		t.Fatalf("before filter = %d", len(got))
	}
}

func TestSubscribe(t *testing.T) {
	s := NewStore()
	var events []Event
	unsub := s.Subscribe(func(ev Event) { events = append(events, ev) })
	d, _ := s.Create("p", "/x", 1, "", nil)
	if err := s.Tag(d.ID, "raw"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddProcessing(d.ID, Processing{Tool: "t"}); err != nil {
		t.Fatal(err)
	}
	unsub()
	if err := s.Tag(d.ID, "post-unsub"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0].Type != EventCreated || events[1].Type != EventTagged || events[2].Type != EventProcessingAdded {
		t.Fatalf("event order: %v %v %v", events[0].Type, events[1].Type, events[2].Type)
	}
	if events[1].Tag != "raw" {
		t.Fatalf("tag event = %+v", events[1])
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 20; i++ {
		d, _ := s.Create("p", fmt.Sprintf("/e/%02d", i), units.Bytes(i), "", map[string]string{"i": fmt.Sprint(i)})
		if i%2 == 0 {
			if err := s.Tag(d.ID, "even"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.AddProcessing(d.ID, Processing{Tool: "x", Results: map[string]string{"r": "1"}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Export(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 20 {
		t.Fatalf("imported = %d", s2.Count())
	}
	if got := s2.Find(Query{Tags: []string{"even"}}); len(got) != 10 {
		t.Fatalf("tag index after import = %d", len(got))
	}
	// New creations must not collide with imported IDs.
	d, err := s2.Create("p", "/new", 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := s.Get(d.ID); clash {
		t.Fatalf("id %s collides with exporter's", d.ID)
	}
	// Import into non-empty store must fail.
	if err := s2.Import(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("import into non-empty store accepted")
	}
}

func TestConcurrentMutations(t *testing.T) {
	s := NewStore()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := s.Create("p", fmt.Sprintf("/c/%03d", i), 1, "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Tag(d.ID, "bulk"); err != nil {
				t.Error(err)
			}
			if _, err := s.AddProcessing(d.ID, Processing{Tool: "t"}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.Count() != n {
		t.Fatalf("count = %d", s.Count())
	}
	if got := s.Find(Query{Tags: []string{"bulk"}}); len(got) != n {
		t.Fatalf("tagged = %d", len(got))
	}
}

// Property: Find with a tag query returns exactly the datasets a
// linear scan finds (index ≡ scan).
func TestIndexMatchesScanQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewStore()
		tags := []string{"a", "b", "c"}
		var ids []string
		for i, op := range ops {
			d, err := s.Create("p", fmt.Sprintf("/q/%03d", i), 1, "", nil)
			if err != nil {
				return false
			}
			ids = append(ids, d.ID)
			if err := s.Tag(d.ID, tags[int(op)%3]); err != nil {
				return false
			}
			if op%5 == 0 && len(ids) > 1 {
				if err := s.Untag(ids[len(ids)-2], tags[int(op)%3]); err != nil {
					return false
				}
			}
		}
		for _, tag := range tags {
			indexed := s.Find(Query{Tags: []string{tag}})
			var scanned []string
			all := s.Find(Query{})
			for _, d := range all {
				if d.HasTag(tag) {
					scanned = append(scanned, d.ID)
				}
			}
			if len(indexed) != len(scanned) {
				return false
			}
			for i := range indexed {
				if indexed[i].ID != scanned[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
