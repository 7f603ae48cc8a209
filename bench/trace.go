package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced pass times the public entry points of each layer from
// outside: the benchmark performs the same seeded operation once per
// rung, each rung one layer further down, and records a span around
// each. A rung's parent is the rung above it, so a layer's self time
// is its span minus its child spans. Spans stay in memory and are
// written out once, when the workload ends. Spans recorded inside the
// facility are a later change.

// span is one timed call into a layer.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span ID, -1 for a top rung
	Op     int    `json:"op"`     // shared by all spans of one replayed op
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex // the WAL wrapper records from the commit leader's goroutine
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span that was timed elsewhere: by the WAL wrapper, or
// by the op itself, whose clock leaves out generating and checking.
func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	from := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: from, End: from + int64(d)})
	return id
}

// timed records fn as one span.
func (t *tracer) timed(name string, op, parent int, fn func() error) (int, error) {
	id := t.begin(name, op, parent)
	err := fn()
	t.end(id)
	return id, err
}

// totals returns the durations, in nanoseconds, of every span named
// name, in recording order.
func (t *tracer) totals(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfs returns, for every span named name, its duration minus the
// part of it that its child spans cover. Children may overlap (WAL
// shards commit in parallel), so the cover is the union of their
// intervals. A child that ran outside its parent — a lower rung is
// timed after the rung above it, not inside it — counts by its
// length, which can make a self time negative when the lower rung
// happened to run slower; that is kept, so medians stay honest.
func (t *tracer) selfs(name string) []float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, end int64
		for i, k := range kids {
			if i == 0 || k.Start > end {
				covered += k.End - k.Start
				end = k.End
			} else if k.End > end {
				covered += k.End - end
				end = k.End
			}
		}
		out = append(out, float64(s.End-s.Start-covered))
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
