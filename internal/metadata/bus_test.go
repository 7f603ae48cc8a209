package metadata

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAsyncPerDatasetOrdering is the async bus's ordering proof:
// with one goroutine mutating each dataset, every subscriber must
// observe that dataset's events in commit order (Created, Tagged...,
// Untagged, Deleted, with monotonically increasing versions), even
// while many datasets mutate concurrently across shards.
func TestAsyncPerDatasetOrdering(t *testing.T) {
	s := NewStoreWith(Options{Async: true, QueueLen: 8})
	defer s.Close()

	var mu sync.Mutex
	got := map[string][]Event{}
	defer s.Subscribe(func(ev Event) {
		mu.Lock()
		got[ev.Dataset.Path] = append(got[ev.Dataset.Path], ev)
		mu.Unlock()
	})()

	const datasets = 32
	var wg sync.WaitGroup
	for i := 0; i < datasets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/ord/%03d", i)
			d, err := s.Create("p", path, 1, "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			for _, tag := range []string{"t1", "t2", "t3"} {
				if err := s.Tag(d.ID, tag); err != nil {
					t.Error(err)
				}
			}
			if err := s.Untag(d.ID, "t2"); err != nil {
				t.Error(err)
			}
			if err := s.Delete(d.ID); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s.Flush()

	want := []EventType{EventCreated, EventTagged, EventTagged, EventTagged, EventUntagged, EventDeleted}
	if len(got) != datasets {
		t.Fatalf("datasets observed = %d, want %d", len(got), datasets)
	}
	for path, evs := range got {
		if len(evs) != len(want) {
			t.Fatalf("%s: %d events, want %d", path, len(evs), len(want))
		}
		for i, ev := range evs {
			if ev.Type != want[i] {
				t.Fatalf("%s: event %d = %v, want %v", path, i, ev.Type, want[i])
			}
			if i > 0 && evs[i].Dataset.Version < evs[i-1].Dataset.Version {
				t.Fatalf("%s: version regressed %d -> %d at event %d",
					path, evs[i-1].Dataset.Version, evs[i].Dataset.Version, i)
			}
		}
		if evs[1].Tag != "t1" || evs[2].Tag != "t2" || evs[3].Tag != "t3" {
			t.Fatalf("%s: tag order %q %q %q", path, evs[1].Tag, evs[2].Tag, evs[3].Tag)
		}
	}
}

// TestAsyncFlushCascade: Flush must cover events published *by
// subscriber callbacks* — the rule engine's pattern, where a Tagged
// event triggers work that tags again.
func TestAsyncFlushCascade(t *testing.T) {
	s := NewStoreWith(Options{Async: true})
	defer s.Close()

	var processed atomic.Int64
	unsub := s.Subscribe(func(ev Event) {
		switch {
		case ev.Type == EventTagged && ev.Tag == "analyze":
			// Re-entrant mutation from the callback goroutine.
			if err := s.Tag(ev.Dataset.ID, "processed"); err != nil {
				t.Error(err)
			}
		case ev.Type == EventTagged && ev.Tag == "processed":
			processed.Add(1)
		}
	})
	defer unsub()

	const n = 50
	for i := 0; i < n; i++ {
		d, err := s.Create("p", fmt.Sprintf("/c/%03d", i), 1, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Tag(d.ID, "analyze"); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if processed.Load() != n {
		t.Fatalf("processed = %d, want %d", processed.Load(), n)
	}
	if got := s.Find(Query{Tags: []string{"processed"}}); len(got) != n {
		t.Fatalf("processed tag on %d datasets, want %d", len(got), n)
	}
}

// TestAsyncBackpressure: a slow subscriber's bounded queue must not
// lose events — publishing far more events than QueueLen still
// delivers every one by Flush time.
func TestAsyncBackpressure(t *testing.T) {
	s := NewStoreWith(Options{Async: true, QueueLen: 4})
	defer s.Close()

	var slow, fast atomic.Int64
	defer s.Subscribe(func(ev Event) {
		// ~memory-bound work to keep the queue saturated.
		for i := 0; i < 100; i++ {
			_ = fmt.Sprintf("%d", i)
		}
		slow.Add(1)
	})()
	defer s.Subscribe(func(ev Event) { fast.Add(1) })()

	const n = 300
	for i := 0; i < n; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/bp/%04d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if slow.Load() != n || fast.Load() != n {
		t.Fatalf("slow=%d fast=%d, want %d each", slow.Load(), fast.Load(), n)
	}
}

// TestAsyncUnsubscribeDropsQueue: unsubscribing mid-stream stops
// delivery and must not wedge Flush.
func TestAsyncUnsubscribeDropsQueue(t *testing.T) {
	s := NewStoreWith(Options{Async: true, QueueLen: 2})
	var count atomic.Int64
	unsub := s.Subscribe(func(ev Event) { count.Add(1) })
	for i := 0; i < 100; i++ {
		if _, err := s.Create("p", fmt.Sprintf("/u/%03d", i), 1, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	unsub()
	s.Flush() // must not hang on the dropped queue
	n := count.Load()
	if n > 100 {
		t.Fatalf("delivered %d > published 100", n)
	}
	// After unsubscribe, no further delivery.
	if _, err := s.Create("p", "/u/after", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if count.Load() != n {
		t.Fatalf("event delivered after unsubscribe: %d -> %d", n, count.Load())
	}
	s.Close()
}

// TestCloseIdempotentAndMutableAfter: Close flushes, is safe to call
// twice, and the store keeps accepting mutations afterwards (silently
// dropping events).
func TestCloseIdempotentAndMutableAfter(t *testing.T) {
	s := NewStoreWith(Options{Async: true})
	var count atomic.Int64
	s.Subscribe(func(Event) { count.Add(1) })
	if _, err := s.Create("p", "/x", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if count.Load() != 1 {
		t.Fatalf("Close did not flush: %d events", count.Load())
	}
	s.Close() // idempotent
	if _, err := s.Create("p", "/y", 1, "", nil); err != nil {
		t.Fatalf("mutation after Close: %v", err)
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	if count.Load() != 1 {
		t.Fatalf("event delivered after Close: %d", count.Load())
	}
}

// TestHoldFlushExtendsBarrier: external work registered via
// HoldFlush keeps Flush blocked until released, and release is
// idempotent.
func TestHoldFlushExtendsBarrier(t *testing.T) {
	s := NewStoreWith(Options{Async: true})
	defer s.Close()
	release := s.HoldFlush()
	done := make(chan struct{})
	go func() {
		s.Flush()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Flush returned while HoldFlush outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	release() // idempotent
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Flush did not return after release")
	}
	s.Flush() // still balanced after double release
}

// TestSyncCloseWaitsForHolds: in sync mode too, Close is a flush —
// it waits for HoldFlush work, so a handed-off rule firing still
// delivers the events it publishes before the bus stops.
func TestSyncCloseWaitsForHolds(t *testing.T) {
	s := NewStore()
	var seen atomic.Int64
	s.Subscribe(func(Event) { seen.Add(1) })
	release := s.HoldFlush()
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while HoldFlush outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := s.Create("p", "/held", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	release()
	<-closed
	if seen.Load() != 1 {
		t.Fatalf("the held work's event was delivered %d times, want 1", seen.Load())
	}
}

// TestCausedByStampsDepth: a CausedBy handle's mutations — a batch
// and a path note included — publish at the cause's depth + 1 on
// either bus, the store's own at 0, and both see one store.
func TestCausedByStampsDepth(t *testing.T) {
	for _, async := range []bool{false, true} {
		s := NewStoreWith(Options{Async: async})
		var mu sync.Mutex
		depths := map[EventType][]int{}
		s.Subscribe(func(ev Event) {
			mu.Lock()
			depths[ev.Type] = append(depths[ev.Type], ev.Depth)
			mu.Unlock()
		})
		ds, err := s.Create("p", "/a", 1, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		caused := s.CausedBy(Event{Depth: 2})
		if err := caused.Tag(ds.ID, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := caused.Create("p", "/b", 1, "", nil); err != nil {
			t.Fatal(err)
		}
		caused.AddReplica("/a", "m1", testDigest("/a"))
		s.Flush()
		s.Close()
		got := fmt.Sprint(depths[EventCreated], depths[EventTagged], depths[EventReplica])
		if got != "[0 3] [3] [3]" {
			t.Fatalf("async=%v: depths created/tagged/replica = %s, want [0 3] [3] [3]", async, got)
		}
		if _, ok := s.ByPath("/b"); !ok || s.Count() != 2 {
			t.Fatalf("async=%v: the handle's create is not in the store", async)
		}
	}
}

// TestSyncModeNoDeliveryAfterClose: Close stops delivery in sync mode
// too, honoring the documented contract.
func TestSyncModeNoDeliveryAfterClose(t *testing.T) {
	s := NewStore()
	seen := 0
	s.Subscribe(func(Event) { seen++ })
	if _, err := s.Create("p", "/x", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Create("p", "/y", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("deliveries = %d, want 1 (none after Close)", seen)
	}
}

// TestSyncModeFlushNoop: in the default sync mode Flush and Close are
// cheap no-ops and subscribers have already run inline.
func TestSyncModeFlushNoop(t *testing.T) {
	s := NewStore()
	seen := 0
	s.Subscribe(func(Event) { seen++ })
	if _, err := s.Create("p", "/x", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("sync delivery not inline: %d", seen)
	}
	s.Flush()
	s.Close()
}
