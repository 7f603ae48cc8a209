package metadata

import (
	"sort"
	"sync"
)

// bus is the store's event-delivery fabric. It runs in one of two
// modes, fixed at construction:
//
//   - sync: deliverSync invokes every subscriber inline, in
//     subscription order, on the caller's goroutine. No goroutines,
//     no queues — the deterministic mode the simulations use.
//   - async: mutators stage events into an unbounded central FIFO
//     while holding their shard lock (a cheap append, so the shard
//     lock is never held across subscriber work). A single pump
//     goroutine moves events from the FIFO into a bounded per-
//     subscriber queue, blocking — and thereby back-pressuring
//     delivery, never the mutators — when a queue is full. One
//     worker goroutine per subscriber drains its queue and invokes
//     the callback.
//
// The topology is deadlock-free under re-entrant callbacks: a
// callback that mutates the store takes a shard lock and then the
// bus lock, both of which are only ever held briefly (staging is an
// append; neither pump nor workers hold a shard lock). Because all
// mutations of one dataset serialize on its shard lock, and staging
// happens inside that critical section, events for one dataset enter
// the FIFO — and therefore every subscriber queue — in commit order.
//
// inflight counts undelivered work: +1 when an event enters the
// central FIFO, +1 for every copy placed in a subscriber queue, -1
// when the pump finishes distributing an event and -1 when a
// callback returns. A cascade (callback publishing a new event)
// increments inflight before the triggering delivery decrements it,
// so inflight only reaches zero at full quiescence — that is what
// makes flush a barrier.
type bus struct {
	async    bool
	queueLen int

	mu       sync.Mutex
	pumpCond *sync.Cond // signaled when the central FIFO gains an event or the bus closes
	idleCond *sync.Cond // broadcast when inflight drops to zero
	queue    []Event    // central FIFO (async mode)
	subs     map[int]*subscriber
	subSeq   int
	inflight int
	closed   bool
	wg       sync.WaitGroup // pump + workers
}

type subscriber struct {
	id     int
	fn     func(Event)
	queue  []Event    // bounded by bus.queueLen (async mode)
	ready  *sync.Cond // worker waits here for events
	space  *sync.Cond // pump waits here for queue space
	closed bool
}

func newBus(async bool, queueLen int) *bus {
	b := &bus{async: async, queueLen: queueLen, subs: make(map[int]*subscriber)}
	b.pumpCond = sync.NewCond(&b.mu)
	b.idleCond = sync.NewCond(&b.mu)
	if async {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.pump()
		}()
	}
	return b
}

// hasSubscribers reports whether any subscriber is attached; mutators
// use it to skip event-snapshot construction entirely on the
// (benchmark-critical) no-subscriber path.
func (b *bus) hasSubscribers() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs) > 0
}

// enqueue stages one event into the central FIFO. It never blocks,
// so it is safe to call while holding a shard lock.
func (b *bus) enqueue(ev Event) {
	b.mu.Lock()
	if b.closed || len(b.subs) == 0 {
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, ev)
	b.inflight++
	b.pumpCond.Signal()
	b.mu.Unlock()
}

// pump moves events from the central FIFO into subscriber queues.
func (b *bus) pump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for len(b.queue) == 0 && !b.closed {
			b.pumpCond.Wait()
		}
		if len(b.queue) == 0 && b.closed {
			return
		}
		ev := b.queue[0]
		b.queue = b.queue[1:]

		// Snapshot the subscriber set in subscription order; a
		// subscriber added after this point does not see ev.
		ids := make([]int, 0, len(b.subs))
		for id := range b.subs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			sub := b.subs[id]
			for sub != nil && !sub.closed && !b.closed && len(sub.queue) >= b.queueLen {
				sub.space.Wait()
				sub = b.subs[id] // may have unsubscribed while we waited
			}
			if sub == nil || sub.closed || b.closed {
				continue
			}
			sub.queue = append(sub.queue, ev)
			b.inflight++
			sub.ready.Signal()
		}
		b.inflight-- // central-FIFO token
		if b.inflight == 0 {
			b.idleCond.Broadcast()
		}
	}
}

// worker drains one subscriber's queue, invoking the callback with
// no bus (or shard) lock held.
func (b *bus) worker(sub *subscriber) {
	b.mu.Lock()
	for {
		for len(sub.queue) == 0 && !sub.closed {
			sub.ready.Wait()
		}
		if len(sub.queue) == 0 && sub.closed {
			b.mu.Unlock()
			return
		}
		ev := sub.queue[0]
		sub.queue = sub.queue[1:]
		sub.space.Signal()
		b.mu.Unlock()
		sub.fn(ev)
		b.mu.Lock()
		b.inflight--
		if b.inflight == 0 {
			b.idleCond.Broadcast()
		}
	}
}

// hold registers one unit of external in-flight work so flush waits
// for it; the returned release is idempotent. Works in both modes —
// in sync mode it is what gives Flush meaning when a subscriber owns
// a worker pool.
func (b *bus) hold() (release func()) {
	b.mu.Lock()
	b.inflight++
	b.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			b.inflight--
			if b.inflight == 0 {
				b.idleCond.Broadcast()
			}
			b.mu.Unlock()
		})
	}
}

// deliverSync invokes every subscriber inline (sync mode). After
// close it is a no-op: Close promises no further deliveries.
func (b *bus) deliverSync(ev Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	ids := make([]int, 0, len(b.subs))
	for id := range b.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	fns := make([]func(Event), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, b.subs[id].fn)
	}
	b.mu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// subscribe registers fn; the returned function unsubscribes, after
// which queued-but-undelivered events for this subscriber are
// dropped.
func (b *bus) subscribe(fn func(Event)) func() {
	b.mu.Lock()
	id := b.subSeq
	b.subSeq++
	sub := &subscriber{id: id, fn: fn}
	sub.ready = sync.NewCond(&b.mu)
	sub.space = sync.NewCond(&b.mu)
	b.subs[id] = sub
	if b.async && !b.closed {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.worker(sub)
		}()
	}
	b.mu.Unlock()
	return func() { b.unsubscribe(id) }
}

func (b *bus) unsubscribe(id int) {
	b.mu.Lock()
	sub := b.subs[id]
	if sub != nil {
		delete(b.subs, id)
		sub.closed = true
		b.inflight -= len(sub.queue)
		sub.queue = nil
		sub.ready.Broadcast()
		sub.space.Broadcast()
		if b.inflight == 0 {
			b.idleCond.Broadcast()
		}
	}
	b.mu.Unlock()
}

// flush blocks until inflight reaches zero (async mode); sync mode
// has no queued work, so it returns immediately.
func (b *bus) flush() {
	b.mu.Lock()
	for b.inflight > 0 {
		b.idleCond.Wait()
	}
	b.mu.Unlock()
}

// close flushes — in sync mode that waits out HoldFlush work — then
// stops the pump and all workers. Events published after close are
// dropped.
func (b *bus) close() {
	b.flush()
	if !b.async {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	b.pumpCond.Signal()
	for _, sub := range b.subs {
		sub.closed = true
		sub.ready.Broadcast()
		sub.space.Broadcast()
	}
	b.mu.Unlock()
	b.wg.Wait()
}
