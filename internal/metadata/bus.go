package metadata

import (
	"sync"
	"sync/atomic"
)

// bus delivers the store's events. It has one mode: Store.publish
// calls deliver on the mutating goroutine once the commit has released
// its shard lock and the journal has acknowledged the records, so a
// subscriber never sees a mutation the store did not acknowledge, and
// may call back into the store (its events nest on the stack).
// Subscribers are called in subscription order.
//
// The subscriber list is copy-on-write: subscribe and unsubscribe
// replace it under mu, and deliver walks the snapshot it loads, so
// delivering an event takes no lock, sorts nothing and allocates
// nothing. mu is a leaf lock, never held across a callback.
//
// inflight counts HoldFlush work: asynchrony lives where work is slow
// (the rule engine's executor), and a subscriber that hands an event
// to a goroutine of its own holds the barrier until that work is done.
// flush waits for inflight to reach zero.
type bus struct {
	subs atomic.Pointer[[]subscriber] // nil once closed

	mu       sync.Mutex
	idle     sync.Cond // broadcast when inflight drops to zero
	subSeq   int
	inflight int
}

type subscriber struct {
	id int
	fn func(Event)
}

func newBus() *bus {
	b := &bus{}
	b.idle.L = &b.mu
	b.subs.Store(&[]subscriber{})
	return b
}

// hasSubscribers reports whether any subscriber is attached; mutators
// use it to skip event-snapshot construction entirely on the
// (benchmark-critical) no-subscriber path.
func (b *bus) hasSubscribers() bool {
	subs := b.subs.Load()
	return subs != nil && len(*subs) > 0
}

// deliver invokes every subscriber with ev, inline. After close it is
// a no-op: Close promises no further deliveries.
func (b *bus) deliver(ev Event) {
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	for _, sub := range *subs {
		sub.fn(ev)
	}
}

// hold registers one unit of external in-flight work so flush waits
// for it; the returned release is idempotent.
func (b *bus) hold() (release func()) {
	b.mu.Lock()
	b.inflight++
	b.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			if b.inflight--; b.inflight == 0 {
				b.idle.Broadcast()
			}
			b.mu.Unlock()
		})
	}
}

// subscribe appends fn to the subscriber list; the returned function
// removes it. Events already being delivered may still reach fn.
func (b *bus) subscribe(fn func(Event)) func() {
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.subSeq
	b.subSeq++
	if subs := b.subs.Load(); subs != nil {
		next := append(append(make([]subscriber, 0, len(*subs)+1), *subs...), subscriber{id, fn})
		b.subs.Store(&next)
	}
	return func() { b.unsubscribe(id) }
}

func (b *bus) unsubscribe(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := b.subs.Load()
	if subs == nil {
		return
	}
	next := make([]subscriber, 0, len(*subs))
	for _, sub := range *subs {
		if sub.id != id {
			next = append(next, sub)
		}
	}
	b.subs.Store(&next)
}

// flush blocks until no HoldFlush work is outstanding.
func (b *bus) flush() {
	b.mu.Lock()
	for b.inflight > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// close flushes, then stops delivery: events published after close are
// dropped. It is idempotent.
func (b *bus) close() {
	b.flush()
	b.mu.Lock()
	b.subs.Store(nil)
	b.mu.Unlock()
}
