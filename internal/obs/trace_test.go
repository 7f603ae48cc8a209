package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestTraceRingProperties is the property test from the issue:
// bounded memory, newest-wins eviction, and no span leaks after
// completion — evicted traces must vanish from the by-ID index.
func TestTraceRingProperties(t *testing.T) {
	const capacity = 16
	tr := NewTracer(capacity)

	var ids []string
	for i := 0; i < 10*capacity; i++ {
		td := tr.StartTrace(fmt.Sprintf("op-%d", i))
		ids = append(ids, td.ID)
		sp := StartSpanOn(td, "work")
		sp.End()

		// Invariant: ring never exceeds capacity.
		if n := tr.Len(); n > capacity {
			t.Fatalf("ring holds %d > cap %d after %d traces", n, capacity, i+1)
		}
	}

	// Newest-wins: the last `capacity` traces are retained in order,
	// everything older is gone from both ring and index.
	recent := tr.Recent(0)
	if len(recent) != capacity {
		t.Fatalf("retained %d, want %d", len(recent), capacity)
	}
	for i, v := range recent {
		want := ids[len(ids)-1-i]
		if v.ID != want {
			t.Errorf("recent[%d] = %s, want %s", i, v.ID, want)
		}
	}
	for _, old := range ids[:len(ids)-capacity] {
		if _, ok := tr.Lookup(old); ok {
			t.Errorf("evicted trace %s still resolvable (leak)", old)
		}
	}

	// No open spans after completion.
	for _, v := range recent {
		if v.OpenSpans != 0 {
			t.Errorf("trace %s has %d open spans after End", v.ID, v.OpenSpans)
		}
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTracer(4)
	td := tr.StartTrace("burst")
	for i := 0; i < maxSpans+100; i++ {
		StartSpanOn(td, "s").End()
	}
	v, _ := tr.Lookup(td.ID)
	if len(v.Spans) != maxSpans {
		t.Errorf("spans = %d, want cap %d", len(v.Spans), maxSpans)
	}
	if v.Dropped != 100 {
		t.Errorf("dropped = %d, want 100", v.Dropped)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewTracer(4)
	td := tr.StartTrace("req")
	ctx := ContextWithTrace(context.Background(), td)
	if got := TraceID(ctx); got != td.ID {
		t.Fatalf("TraceID = %q, want %q", got, td.ID)
	}
	sp := StartSpan(ctx, "child")
	sp.Annotate("site=%s", "gridka")
	sp.End()
	sp.End() // idempotent

	v, _ := tr.Lookup(td.ID)
	if len(v.Spans) != 1 || v.Spans[0].Name != "child" || v.Spans[0].Detail != "site=gridka" {
		t.Fatalf("spans = %+v", v.Spans)
	}

	// Untraced context: everything no-ops.
	if sp := StartSpan(context.Background(), "x"); sp != nil {
		t.Error("StartSpan on untraced ctx returned non-nil")
	}
	if id := TraceID(context.Background()); id != "" {
		t.Errorf("TraceID on untraced ctx = %q", id)
	}
	var nilSpan *Span
	nilSpan.End()
	nilSpan.Annotate("ok")
}

func TestAdoptedAndLateSpans(t *testing.T) {
	tr := NewTracer(8)

	// Client-supplied ID is adopted when well-formed...
	td := tr.StartTraceID("client-chosen.id_1", "GET")
	if td.ID != "client-chosen.id_1" {
		t.Errorf("adopted ID = %q", td.ID)
	}
	// ...rejected when hostile.
	bad := tr.StartTraceID("evil\"} 1\nfake_metric 9", "GET")
	if bad.ID == "evil\"} 1\nfake_metric 9" {
		t.Error("hostile ID adopted verbatim")
	}
	// Duplicate IDs get a fresh one rather than aliasing.
	dup := tr.StartTraceID("client-chosen.id_1", "GET")
	if dup.ID == td.ID {
		t.Error("duplicate ID aliased an existing trace")
	}

	// SpanFor creates the trace on demand (master side of a job).
	sp := tr.SpanFor("job-trace-1", "master.job")
	sp.End()
	// Late spans attach by ID (worker completion RPC).
	tr.Attach("job-trace-1", []SpanData{{Name: "mr.map", DurNs: 1000}})
	v, ok := tr.Lookup("job-trace-1")
	if !ok || len(v.Spans) != 2 {
		t.Fatalf("job trace spans = %+v", v.Spans)
	}
	// Attach to an evicted/unknown trace is a silent no-op.
	tr.Attach("never-seen", []SpanData{{Name: "x"}})
}

func TestTracerHandler(t *testing.T) {
	tr := NewTracer(8)
	td := tr.StartTrace("GET /v1/objects")
	StartSpanOn(td, "auth").End()

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces?n=5", nil))
	var views []TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &views); err != nil {
		t.Fatalf("list: %v (%s)", err, rec.Body.String())
	}
	if len(views) != 1 || views[0].Root != "GET /v1/objects" {
		t.Fatalf("views = %+v", views)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces?id="+td.ID, nil))
	var one TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Spans) != 1 || one.Spans[0].Name != "auth" {
		t.Fatalf("trace = %+v", one)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/debug/traces?id=missing", nil))
	if rec.Code != 404 {
		t.Errorf("missing trace status = %d", rec.Code)
	}
}

// TestTracerConcurrent exercises the ring under -race: concurrent
// trace starts, span records, late attaches and snapshots.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				td := tr.StartTrace("op")
				sp := StartSpanOn(td, "s")
				sp.End()
				tr.Attach(td.ID, []SpanData{{Name: "late", DurNs: 1}})
				tr.Recent(5)
				tr.SpanFor(td.ID, "extra").End()
			}
		}(g)
	}
	wg.Wait()
	if n := tr.Len(); n > 32 {
		t.Errorf("ring overflow: %d", n)
	}
}

// TestLookupCompleteWaitsForRootEnd pins the ring's completion
// semantic (the E19 race): a trace is visible from its first span on,
// Lookup marks it open while any span — the handler's deferred root
// included — has not ended, and LookupComplete returns only a view
// with no open spans that holds the root. Run under -race at 4 procs.
func TestLookupCompleteWaitsForRootEnd(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			td := tr.StartTrace("req")
			root := StartSpanOn(td, "gw.request")
			StartSpanOn(td, "gw.op").End()
			// The "response" is out: a client may look the trace up now,
			// before the deferred root End below.
			if v, ok := tr.Lookup(td.ID); !ok || v.OpenSpans != 1 {
				t.Errorf("open trace: ok=%v open=%d, want visible with 1 open span", ok, v.OpenSpans)
			}
			released := make(chan struct{})
			go func() {
				<-released
				root.End()
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			close(released)
			v, ok := tr.LookupComplete(ctx, td.ID)
			if !ok || v.OpenSpans != 0 {
				t.Errorf("LookupComplete: ok=%v open=%d", ok, v.OpenSpans)
				return
			}
			hasRoot := false
			for _, sp := range v.Spans {
				hasRoot = hasRoot || sp.Name == "gw.request"
			}
			if !hasRoot {
				t.Errorf("complete view has no gw.request root: %+v", v.Spans)
			}
		}()
	}
	wg.Wait()

	// A trace that never completes ends the wait with the context.
	td := tr.StartTrace("stuck")
	StartSpanOn(td, "gw.request")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if v, ok := tr.LookupComplete(ctx, td.ID); ok || v.OpenSpans != 1 {
		t.Errorf("stuck trace: ok=%v open=%d, want false with 1 open span", ok, v.OpenSpans)
	}
}
