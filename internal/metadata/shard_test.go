package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/units"
)

// TestShardCountRounding: shard counts round up to powers of two and
// 0 selects the default.
func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewStoreWith(Options{Shards: tc.in}).Shards(); got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedMatchesSingleLock: the same operation sequence against a
// 1-shard store and a 16-shard store yields identical query results —
// sharding must be invisible to readers.
func TestShardedMatchesSingleLock(t *testing.T) {
	single := NewStoreWith(Options{Shards: 1})
	sharded := NewStoreWith(Options{Shards: 16})
	for _, s := range []*Store{single, sharded} {
		var ids []string
		for i := 0; i < 200; i++ {
			proj := "zebrafish"
			if i%3 == 0 {
				proj = "katrin"
			}
			d, err := s.Create(proj, fmt.Sprintf("/m/%04d", i), units.Bytes(i), "", map[string]string{"w": fmt.Sprint(i % 7)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, d.ID)
			if i%4 == 0 {
				if err := s.Tag(d.ID, "cal"); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 200; i += 9 {
			if err := s.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []Query{
		{},
		{Project: "katrin"},
		{Tags: []string{"cal"}},
		{Project: "zebrafish", Tags: []string{"cal"}},
		{PathPrefix: "/m/01"},
		{Basic: map[string]string{"w": "3"}},
		{Limit: 17},
		{Tags: []string{"cal"}, Limit: 5},
	} {
		a, b := single.Find(q), sharded.Find(q)
		if len(a) != len(b) {
			t.Fatalf("query %+v: single=%d sharded=%d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Path != b[i].Path {
				t.Fatalf("query %+v: row %d differs: %s vs %s", q, i, a[i].ID, b[i].ID)
			}
		}
	}
	if single.Count() != sharded.Count() {
		t.Fatalf("count: %d vs %d", single.Count(), sharded.Count())
	}
}

// TestConcurrentStress drives Create/Tag/Untag/Find/Delete/
// AddProcessing from many goroutines across all shards; run with
// -race this is the data-race proof for the sharded store. Invariants
// are checked after the storm settles.
func TestConcurrentStress(t *testing.T) {
	s := NewStoreWith(Options{Shards: 8})
	const (
		workers = 16
		perW    = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []string
			for i := 0; i < perW; i++ {
				d, err := s.Create("p", fmt.Sprintf("/s/%02d/%03d", w, i), 1, "", nil)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, d.ID)
				if err := s.Tag(d.ID, "keep"); err != nil {
					t.Error(err)
				}
				switch rng.Intn(4) {
				case 0:
					if err := s.Tag(d.ID, fmt.Sprintf("t%d", rng.Intn(5))); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := s.AddProcessing(d.ID, Processing{Tool: "x"}); err != nil {
						t.Error(err)
					}
				case 2:
					s.Find(Query{Tags: []string{"keep"}, Limit: 10})
				case 3:
					victim := mine[rng.Intn(len(mine))]
					if err := s.Delete(victim); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Invariants: every surviving dataset is findable by ID, path and
	// tag index, and the tag index holds no ghosts.
	live := s.Find(Query{})
	if len(live) != s.Count() {
		t.Fatalf("Find(all)=%d Count=%d", len(live), s.Count())
	}
	for _, d := range live {
		if got, ok := s.Get(d.ID); !ok || got.Path != d.Path {
			t.Fatalf("Get(%s) lost", d.ID)
		}
		if got, ok := s.ByPath(d.Path); !ok || got.ID != d.ID {
			t.Fatalf("ByPath(%s) lost", d.Path)
		}
	}
	tagged := s.Find(Query{Tags: []string{"keep"}})
	if len(tagged) != len(live) {
		t.Fatalf("tag index: %d tagged vs %d live", len(tagged), len(live))
	}
	// Deleted datasets must be fully unindexed: their paths must be
	// reclaimable.
	for w := 0; w < workers; w++ {
		for i := 0; i < perW; i++ {
			path := fmt.Sprintf("/s/%02d/%03d", w, i)
			if _, ok := s.ByPath(path); ok {
				continue
			}
			if _, err := s.Create("p", path, 1, "", nil); err != nil {
				t.Fatalf("deleted path %s not reclaimable: %v", path, err)
			}
		}
	}
}

// TestCreateBatch: per-item duplicate errors, atomic tag application,
// and index consistency across shards.
func TestCreateBatch(t *testing.T) {
	s := NewStore()
	if _, err := s.Create("p", "/pre/claimed", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	specs := []CreateSpec{
		{Project: "p", Path: "/b/0", Size: 1, Tags: []string{"raw", "hot"}},
		{Project: "p", Path: "/b/1", Size: 2, Basic: map[string]string{"k": "v"}},
		{Project: "q", Path: "/pre/claimed", Size: 3}, // store duplicate
		{Project: "p", Path: "/b/2", Size: 4},
		{Project: "p", Path: "/b/2", Size: 5}, // in-batch duplicate
	}
	res := s.CreateBatch(specs)
	if len(res) != len(specs) {
		t.Fatalf("results = %d", len(res))
	}
	for i, wantErr := range []bool{false, false, true, false, true} {
		if (res[i].Err != nil) != wantErr {
			t.Fatalf("item %d: err = %v", i, res[i].Err)
		}
		if wantErr && !errors.Is(res[i].Err, ErrDuplicate) {
			t.Fatalf("item %d: err = %v, want ErrDuplicate", i, res[i].Err)
		}
	}
	if d := res[0].Dataset; !d.HasTag("raw") || !d.HasTag("hot") || d.Version != 3 {
		t.Fatalf("batched tags: %+v", d)
	}
	if got := s.Find(Query{Tags: []string{"raw"}}); len(got) != 1 {
		t.Fatalf("tag index after batch = %d", len(got))
	}
	if s.Count() != 4 { // pre-claimed + 3 batch successes
		t.Fatalf("count = %d", s.Count())
	}
	if got, ok := s.ByPath("/b/1"); !ok || got.Basic["k"] != "v" {
		t.Fatalf("ByPath(/b/1) = %+v, %v", got, ok)
	}
	// The failed in-batch duplicate must not have clobbered the
	// successful claim.
	if got, ok := s.ByPath("/b/2"); !ok || got.Size != 4 {
		t.Fatalf("ByPath(/b/2) = %+v, %v", got, ok)
	}
}

// TestCreateBatchEvents: in sync mode a batch publishes Created (and
// Tagged) events in commit order, same as the unbatched calls would.
func TestCreateBatchEvents(t *testing.T) {
	s := NewStore()
	var events []Event
	defer s.Subscribe(func(ev Event) { events = append(events, ev) })()
	res := s.CreateBatch([]CreateSpec{
		{Project: "p", Path: "/e/0", Tags: []string{"raw"}},
		{Project: "p", Path: "/e/1"},
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	perDS := map[string][]Event{}
	for _, ev := range events {
		perDS[ev.Dataset.Path] = append(perDS[ev.Dataset.Path], ev)
	}
	e0 := perDS["/e/0"]
	if len(e0) != 2 || e0[0].Type != EventCreated || e0[1].Type != EventTagged || e0[1].Tag != "raw" {
		t.Fatalf("events for /e/0: %+v", e0)
	}
	if e0[0].Dataset.Version != 1 || e0[1].Dataset.Version != 2 {
		t.Fatalf("versions: %d, %d", e0[0].Dataset.Version, e0[1].Dataset.Version)
	}
	if len(perDS["/e/1"]) != 1 || perDS["/e/1"][0].Type != EventCreated {
		t.Fatalf("events for /e/1: %+v", perDS["/e/1"])
	}
}
