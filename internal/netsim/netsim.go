// Package netsim models the LSDF network (slide 7: dedicated 10 GE
// backbone, redundant routers, direct institute links) as a fluid-flow
// simulator: flows occupy paths of links, share bandwidth max-min
// fairly, and complete when their byte budget drains.
//
// A fluid model is the right substitution for the paper's transfer
// claims: "15 days to transfer 1 PB over an ideal 10 Gb/s link" is
// bandwidth arithmetic plus protocol efficiency, and contention between
// DAQ streams and analysis traffic is captured exactly by max-min fair
// sharing without simulating packets.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// Node is a network endpoint or router.
type Node struct {
	Name string
	// links leaving this node, by destination node name.
	out map[string]*Link
}

// Link is a directed edge with a fixed capacity. Duplex physical links
// are modeled as two directed Links, as Ethernet is full duplex.
type Link struct {
	Name     string
	From, To *Node
	Capacity units.Rate
	Latency  time.Duration

	flows       map[*Flow]struct{}
	carried     float64 // total bytes carried, for utilization reports
	util        *sim.TimeWeighted
	lastRateSum float64
	down        bool
}

// Down reports whether the link is failed.
func (l *Link) Down() bool { return l.down }

// Utilization returns the time-averaged fraction of link capacity used.
func (l *Link) Utilization() float64 {
	if l.Capacity <= 0 {
		return 0
	}
	return l.util.Mean() / float64(l.Capacity)
}

// CarriedBytes returns the total volume the link has carried.
func (l *Link) CarriedBytes() units.Bytes { return units.Bytes(l.carried) }

// Flow is an in-flight transfer.
type Flow struct {
	ID         int
	Src, Dst   string
	Total      units.Bytes
	Efficiency float64    // achievable fraction of raw bandwidth (protocol overhead)
	RateCap    units.Rate // application-level cap, 0 = unlimited

	path       []*Link
	remaining  float64
	rate       float64 // current allocated bytes/sec
	lastUpdate time.Duration
	started    time.Duration
	finished   time.Duration
	done       bool
	stalled    bool // no route exists; rate pinned to zero
	onComplete func(*Flow)
	net        *Network
}

// Rate returns the flow's current max-min allocation.
func (f *Flow) Rate() units.Rate { return units.Rate(f.rate) }

// Remaining returns the bytes not yet delivered.
func (f *Flow) Remaining() units.Bytes { return units.Bytes(math.Ceil(f.remaining)) }

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Elapsed returns how long the flow has been (or was) active.
func (f *Flow) Elapsed() time.Duration {
	if f.done {
		return f.finished - f.started
	}
	return f.net.eng.Now() - f.started
}

// Network is a topology plus the set of active flows.
type Network struct {
	eng    *sim.Engine
	nodes  map[string]*Node
	links  []*Link
	flows  map[*Flow]struct{}
	nextID int

	completionEv *sim.Event
	// routeCache memoizes shortest paths; topology changes invalidate it.
	routeCache map[[2]string][]*Link
}

// New creates an empty network bound to a simulation engine.
func New(eng *sim.Engine) *Network {
	return &Network{
		eng:        eng,
		nodes:      make(map[string]*Node),
		flows:      make(map[*Flow]struct{}),
		routeCache: make(map[[2]string][]*Link),
	}
}

// AddNode registers a node; adding an existing name is idempotent.
func (n *Network) AddNode(name string) *Node {
	if nd, ok := n.nodes[name]; ok {
		return nd
	}
	nd := &Node{Name: name, out: make(map[string]*Link)}
	n.nodes[name] = nd
	return nd
}

// AddDuplexLink connects a and b with one directed link each way, each
// at the given capacity (full-duplex Ethernet semantics).
func (n *Network) AddDuplexLink(a, b string, capacity units.Rate, latency time.Duration) (ab, ba *Link) {
	return n.addLink(a, b, capacity, latency), n.addLink(b, a, capacity, latency)
}

func (n *Network) addLink(from, to string, capacity units.Rate, latency time.Duration) *Link {
	clear(n.routeCache) // topology changed; memoized routes are stale
	f, t := n.AddNode(from), n.AddNode(to)
	l := &Link{
		Name:     fmt.Sprintf("%s->%s", from, to),
		From:     f,
		To:       t,
		Capacity: capacity,
		Latency:  latency,
		flows:    make(map[*Flow]struct{}),
		util:     sim.NewTimeWeighted(n.eng),
	}
	f.out[to] = l
	n.links = append(n.links, l)
	return l
}

// Links returns all directed links, in creation order.
func (n *Network) Links() []*Link { return n.links }

// path finds the directed shortest path (hop count) from src to dst by
// BFS, memoizing the result. Static shortest-path routing stands in
// for the facility's redundant routers: the paper's topology is small
// and symmetric.
func (n *Network) path(src, dst string) ([]*Link, error) {
	if src == dst {
		return nil, nil
	}
	if cached, ok := n.routeCache[[2]string{src, dst}]; ok {
		return cached, nil
	}
	s, ok := n.nodes[src]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", src)
	}
	if _, ok := n.nodes[dst]; !ok {
		return nil, fmt.Errorf("netsim: unknown node %q", dst)
	}
	type hop struct {
		node *Node
		via  *Link
		prev *hop
	}
	visited := map[string]bool{src: true}
	queue := []*hop{{node: s}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.node.Name == dst {
			var path []*Link
			for cur := h; cur.via != nil; cur = cur.prev {
				path = append([]*Link{cur.via}, path...)
			}
			n.routeCache[[2]string{src, dst}] = path
			return path, nil
		}
		// Deterministic neighbor order: iterate links slice, not map.
		for _, l := range n.links {
			if l.From != h.node || l.down || visited[l.To.Name] {
				continue
			}
			visited[l.To.Name] = true
			queue = append(queue, &hop{node: l.To, via: l, prev: h})
		}
	}
	return nil, fmt.Errorf("netsim: no route %s -> %s", src, dst)
}

// FlowSpec describes a transfer to start.
type FlowSpec struct {
	Src, Dst   string
	Bytes      units.Bytes
	Efficiency float64    // 0 => 1.0 (ideal)
	RateCap    units.Rate // 0 => unlimited
	OnComplete func(*Flow)
}

// ErrNoVolume is returned for non-positive transfer sizes.
var ErrNoVolume = errors.New("netsim: flow must carry at least one byte")

// StartFlow begins a transfer at the current virtual time.
func (n *Network) StartFlow(spec FlowSpec) (*Flow, error) {
	if spec.Bytes <= 0 {
		return nil, ErrNoVolume
	}
	path, err := n.path(spec.Src, spec.Dst)
	if err != nil {
		return nil, err
	}
	eff := spec.Efficiency
	if eff <= 0 {
		eff = 1.0
	}
	f := &Flow{
		ID:         n.nextID,
		Src:        spec.Src,
		Dst:        spec.Dst,
		Total:      spec.Bytes,
		Efficiency: eff,
		RateCap:    spec.RateCap,
		path:       path,
		remaining:  float64(spec.Bytes),
		lastUpdate: n.eng.Now(),
		started:    n.eng.Now(),
		onComplete: spec.OnComplete,
		net:        n,
	}
	n.nextID++
	n.flows[f] = struct{}{}
	for _, l := range path {
		l.flows[f] = struct{}{}
	}
	n.advance()
	n.recompute()
	n.scheduleNext()
	return f, nil
}

// advance drains remaining bytes for elapsed time at current rates.
func (n *Network) advance() {
	now := n.eng.Now()
	for f := range n.flows {
		dt := (now - f.lastUpdate).Seconds()
		if dt > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			// Every link on the path carries every byte of the flow.
			for _, l := range f.path {
				l.carried += moved
			}
		}
		f.lastUpdate = now
	}
}

// recompute runs max-min fair water-filling across links and per-flow
// caps, assigning each active flow its fair rate.
func (n *Network) recompute() {
	type constraint struct {
		cap   float64
		flows []*Flow
	}
	var cons []constraint
	for _, l := range n.links {
		if l.down || len(l.flows) == 0 {
			l.util.Set(0)
			continue
		}
		fs := make([]*Flow, 0, len(l.flows))
		for f := range l.flows {
			fs = append(fs, f)
		}
		// Deterministic order.
		sortFlowsByID(fs)
		cons = append(cons, constraint{cap: float64(l.Capacity), flows: fs})
	}
	// Per-flow caps (protocol efficiency × NIC/app cap) become
	// single-flow constraints. A flow with an empty path (src == dst)
	// is constrained only by its cap.
	active := make([]*Flow, 0, len(n.flows))
	for f := range n.flows {
		active = append(active, f)
	}
	sortFlowsByID(active)
	for _, f := range active {
		if f.stalled {
			// No route: pinned at zero until a link is restored.
			cons = append(cons, constraint{cap: 0, flows: []*Flow{f}})
			continue
		}
		limit := math.Inf(1)
		if f.RateCap > 0 {
			limit = float64(f.RateCap)
		}
		// Efficiency scales the flow's achievable share of any path;
		// model it as a cap at efficiency × min link capacity.
		if len(f.path) > 0 && f.Efficiency < 1 {
			minCap := math.Inf(1)
			for _, l := range f.path {
				minCap = math.Min(minCap, float64(l.Capacity))
			}
			limit = math.Min(limit, f.Efficiency*minCap)
		}
		if !math.IsInf(limit, 1) || len(f.path) == 0 {
			if math.IsInf(limit, 1) {
				// Local copy with no constraint at all: complete at an
				// effectively infinite rate.
				limit = math.MaxFloat64 / 4
			}
			cons = append(cons, constraint{cap: limit, flows: []*Flow{f}})
		}
	}

	rates := make(map[*Flow]float64, len(active))
	frozen := make(map[*Flow]bool, len(active))
	for len(frozen) < len(active) {
		best := -1
		bestShare := math.Inf(1)
		for i, c := range cons {
			unfrozen := 0
			res := c.cap
			for _, f := range c.flows {
				if frozen[f] {
					res -= rates[f]
				} else {
					unfrozen++
				}
			}
			if unfrozen == 0 {
				continue
			}
			share := res / float64(unfrozen)
			if share < 0 {
				share = 0
			}
			if share < bestShare {
				bestShare = share
				best = i
			}
		}
		if best == -1 {
			// Flows crossing no constraint at all (shouldn't happen:
			// caps guarantee at least one) — freeze at infinity guard.
			for _, f := range active {
				if !frozen[f] {
					frozen[f] = true
					rates[f] = math.MaxFloat64 / 4
				}
			}
			break
		}
		for _, f := range cons[best].flows {
			if !frozen[f] {
				frozen[f] = true
				rates[f] = bestShare
			}
		}
	}
	for _, f := range active {
		f.rate = rates[f]
	}
	// Refresh link utilization signals.
	for _, l := range n.links {
		sum := 0.0
		for f := range l.flows {
			sum += f.rate
		}
		l.lastRateSum = sum
		l.util.Set(sum)
	}
}

func sortFlowsByID(fs []*Flow) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].ID < fs[j-1].ID; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// scheduleNext (re)arms the earliest-completion event.
func (n *Network) scheduleNext() {
	if n.completionEv != nil {
		n.eng.Cancel(n.completionEv)
		n.completionEv = nil
	}
	if len(n.flows) == 0 {
		return
	}
	eta := math.Inf(1)
	for f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if t < eta {
			eta = t
		}
	}
	if math.IsInf(eta, 1) {
		return // everything stalled; a topology change must wake us
	}
	delay := time.Duration(eta * float64(time.Second))
	if delay < time.Nanosecond {
		// Sub-nanosecond residues must still advance the clock, or a
		// flow whose remainder exceeds the completion epsilon would
		// re-arm at zero delay forever.
		delay = time.Nanosecond
	}
	n.completionEv = n.eng.Schedule(delay, n.onCompletion)
}

// onCompletion drains time, retires finished flows and re-arms.
func (n *Network) onCompletion() {
	n.completionEv = nil
	n.advance()
	const eps = 0.5 // half a byte of slack absorbs float drift
	var finished []*Flow
	for f := range n.flows {
		if f.remaining <= eps {
			finished = append(finished, f)
		}
	}
	sortFlowsByID(finished)
	for _, f := range finished {
		f.remaining = 0
		f.done = true
		f.finished = n.eng.Now()
		delete(n.flows, f)
		for _, l := range f.path {
			delete(l.flows, f)
		}
	}
	n.recompute()
	n.scheduleNext()
	for _, f := range finished {
		if f.onComplete != nil {
			f.onComplete(f)
		}
	}
}
