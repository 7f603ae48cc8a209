package metadata

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAsyncFlushCascade: Flush must cover work a subscriber hands off
// under HoldFlush and the work that work hands off in turn — the rule
// engine's executor pattern, where a Tagged event starts a firing that
// tags again off the mutator's goroutine.
func TestAsyncFlushCascade(t *testing.T) {
	s := NewStore()
	defer s.Close()

	var processed atomic.Int64
	handOff := func(work func()) {
		release := s.HoldFlush()
		go func() {
			defer release()
			time.Sleep(time.Millisecond)
			work()
		}()
	}
	unsub := s.Subscribe(func(ev Event) {
		switch {
		case ev.Type == EventTagged && ev.Tag == "analyze":
			handOff(func() {
				if err := s.Tag(ev.Dataset.ID, "processed"); err != nil {
					t.Error(err)
				}
			})
		case ev.Type == EventTagged && ev.Tag == "processed":
			handOff(func() { processed.Add(1) })
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

// TestCloseIdempotentAndMutableAfter: Close flushes, is safe to call
// twice, and the store keeps accepting mutations afterwards (silently
// dropping events).
func TestCloseIdempotentAndMutableAfter(t *testing.T) {
	s := NewStore()
	var count atomic.Int64
	s.Subscribe(func(ev Event) {
		release := s.HoldFlush()
		go func() {
			time.Sleep(5 * time.Millisecond)
			count.Add(1)
			release()
		}()
	})
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
	s.Flush()
	if count.Load() != 1 {
		t.Fatalf("event delivered after Close: %d", count.Load())
	}
	s.Subscribe(func(Event) { count.Add(1) })
	if _, err := s.Create("p", "/z", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 1 {
		t.Fatalf("a subscriber added after Close saw an event: %d", count.Load())
	}
}

// TestDeliverInSubscriptionOrder: subscribers are called in the order
// they subscribed, an unsubscribed one is skipped without disturbing
// the rest, and delivering an event allocates nothing.
func TestDeliverInSubscriptionOrder(t *testing.T) {
	s := NewStore()
	defer s.Close()
	var order []int
	unsubs := make([]func(), 5)
	for i := range unsubs {
		unsubs[i] = s.Subscribe(func(Event) { order = append(order, i) })
	}
	unsubs[2]()
	if _, err := s.Create("p", "/x", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Subscribe(func(Event) { order = append(order, 5) })
	if _, err := s.Create("p", "/y", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[0 1 3 4 0 1 3 4 5]" {
		t.Fatalf("delivery order = %s, want [0 1 3 4 0 1 3 4 5]", got)
	}
	order = make([]int, 0, 1024)
	ev := Event{Type: EventTagged, Tag: "t"}
	if n := testing.AllocsPerRun(100, func() { s.bus.deliver(ev); order = order[:0] }); n != 0 {
		t.Fatalf("delivering one event to five subscribers allocated %.1f times, want 0", n)
	}
}

// TestHoldFlushExtendsBarrier: external work registered via
// HoldFlush keeps Flush blocked until released, and release is
// idempotent.
func TestHoldFlushExtendsBarrier(t *testing.T) {
	s := NewStore()
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

// TestSyncCloseWaitsForHolds: Close is a flush — it waits for
// HoldFlush work, so a handed-off rule firing still delivers the
// events it publishes before delivery stops.
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
// and a path note included — publish at the cause's depth + 1, the
// store's own at 0, and both see one store.
func TestCausedByStampsDepth(t *testing.T) {
	s := NewStore()
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
	s.Close()
	got := fmt.Sprint(depths[EventCreated], depths[EventTagged], depths[EventReplica])
	if got != "[0 3] [3] [3]" {
		t.Fatalf("depths created/tagged/replica = %s, want [0 3] [3] [3]", got)
	}
	if _, ok := s.ByPath("/b"); !ok || s.Count() != 2 {
		t.Fatal("the handle's create is not in the store")
	}
}

// TestSyncModeNoDeliveryAfterClose: Close stops delivery, honoring the
// documented contract.
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

// TestSyncModeFlushNoop: with no HoldFlush work Flush and Close are
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
