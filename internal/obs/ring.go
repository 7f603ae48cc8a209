package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Tracer owns the bounded ring of recent traces. Memory is capped:
// at most `capacity` traces, each at most maxSpans spans; starting
// trace capacity+1 evicts the oldest (newest wins). Evicted traces
// drop out of the by-ID index too, so completed work leaks nothing.
type Tracer struct {
	mu   sync.Mutex
	cap  int
	ring []*TraceData // FIFO: ring[0] is oldest
	byID map[string]*TraceData
}

// NewTracer creates a tracer retaining the last capacity traces
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{cap: capacity, byID: make(map[string]*TraceData)}
}

// StartTrace mints a new trace with a fresh ID and enters it in the
// ring. root names the operation (e.g. "GET /v1/objects").
func (tr *Tracer) StartTrace(root string) *TraceData {
	return tr.StartTraceID(NewTraceID(), root)
}

// maxClientTraceID bounds adopted IDs so a hostile client can't
// balloon ring memory through the X-LSDF-Trace header.
const maxClientTraceID = 64

// StartTraceID enters a trace under a caller-chosen ID (adopting a
// client's X-LSDF-Trace). Invalid or duplicate IDs get a fresh one.
func (tr *Tracer) StartTraceID(id, root string) *TraceData {
	if tr == nil {
		return nil
	}
	if id == "" || len(id) > maxClientTraceID || !validTraceID(id) {
		id = NewTraceID()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, dup := tr.byID[id]; dup {
		id = NewTraceID()
	}
	t := &TraceData{ID: id, Root: root, Start: now()}
	tr.insertLocked(t)
	return t
}

// SpanFor opens a span on the trace with the given ID, creating the
// trace if the ring doesn't hold it (the master starting a job span
// for a trace minted at the gateway). Returns nil for empty IDs.
func (tr *Tracer) SpanFor(id, name string) *Span {
	if tr == nil || id == "" {
		return nil
	}
	tr.mu.Lock()
	t, ok := tr.byID[id]
	if !ok {
		if len(id) > maxClientTraceID || !validTraceID(id) {
			tr.mu.Unlock()
			return nil
		}
		t = &TraceData{ID: id, Root: name, Start: now()}
		tr.insertLocked(t)
	}
	tr.mu.Unlock()
	return t.startSpan(name)
}

// Attach appends externally recorded spans to the trace with the
// given ID, if the ring still holds it (it may have been evicted —
// that's fine, the spans are simply dropped).
func (tr *Tracer) Attach(id string, spans []SpanData) {
	if tr == nil || id == "" || len(spans) == 0 {
		return
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t != nil {
		t.AddSpans(spans)
	}
}

// Lookup returns a snapshot of one trace, or false. The ring holds a
// trace from its first span on, so the snapshot may be of a trace
// still in progress: it is complete when OpenSpans is 0 — every span
// started on it, the root included, has ended — and open otherwise (a
// client that has read a response body can get here before the
// handler's deferred root End). Use LookupComplete to wait for it.
func (tr *Tracer) Lookup(id string) (TraceView, bool) {
	if tr == nil {
		return TraceView{}, false
	}
	tr.mu.Lock()
	t := tr.byID[id]
	tr.mu.Unlock()
	if t == nil {
		return TraceView{}, false
	}
	return t.snapshot(), true
}

// LookupComplete is Lookup that waits until the trace is complete. It
// returns false, with the last view it saw, when ctx ends first.
func (tr *Tracer) LookupComplete(ctx context.Context, id string) (TraceView, bool) {
	for wait := 50 * time.Microsecond; ; wait *= 2 {
		v, ok := tr.Lookup(id)
		if ok && v.OpenSpans == 0 {
			return v, true
		}
		select {
		case <-ctx.Done():
			return v, false
		case <-time.After(wait):
		}
	}
}

// Recent returns snapshots of the most recent n traces, newest
// first. n <= 0 means all retained.
func (tr *Tracer) Recent(n int) []TraceView {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	if n <= 0 || n > len(tr.ring) {
		n = len(tr.ring)
	}
	picked := make([]*TraceData, n)
	for i := 0; i < n; i++ {
		picked[i] = tr.ring[len(tr.ring)-1-i]
	}
	tr.mu.Unlock()
	out := make([]TraceView, n)
	for i, t := range picked {
		out[i] = t.snapshot()
	}
	return out
}

// Len reports how many traces the ring currently holds.
func (tr *Tracer) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.ring)
}

func (tr *Tracer) insertLocked(t *TraceData) {
	if len(tr.ring) >= tr.cap {
		evict := len(tr.ring) - tr.cap + 1
		for _, old := range tr.ring[:evict] {
			delete(tr.byID, old.ID)
		}
		tr.ring = append(tr.ring[:0], tr.ring[evict:]...)
	}
	tr.ring = append(tr.ring, t)
	tr.byID[t.ID] = t
}

func validTraceID(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Handler serves the trace ring as JSON: GET ?n=K for the K newest,
// GET ?id=X for one trace. This is the /v1/debug/traces endpoint.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			v, ok := tr.Lookup(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "trace not found"})
				return
			}
			_ = json.NewEncoder(w).Encode(v)
			return
		}
		n := 20
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		_ = json.NewEncoder(w).Encode(tr.Recent(n))
	})
}
