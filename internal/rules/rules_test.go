package rules

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
	"repro/internal/workflow"
)

func newCtx(t *testing.T) (*adal.Layer, *metadata.Store) {
	t.Helper()
	layer := adal.NewLayer()
	if err := layer.Mount("/", adal.NewMemFS("store")); err != nil {
		t.Fatal(err)
	}
	meta := metadata.NewStore()
	t.Cleanup(meta.Close)
	return layer, meta
}

func putObject(t *testing.T, layer *adal.Layer, meta *metadata.Store, project, path, content string) metadata.Dataset {
	t.Helper()
	n, sum, err := layer.WriteChecksummed(path, strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := meta.Create(project, path, n, sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAutoReplicationOnCreate(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	e.Add(Rule{
		Name:      "replicate-zebrafish",
		Event:     OnCreate,
		Condition: ProjectIs("zebrafish"),
		Actions:   []Action{Replicate("/replica")},
	})

	ds := putObject(t, layer, meta, "zebrafish", "/itg/img1", "pixels")
	putObject(t, layer, meta, "katrin", "/katrin/run1", "events")

	// Replica exists for the zebrafish object only.
	a, err := layer.Checksum("/itg/img1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := layer.Checksum("/replica/itg/img1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("replica differs")
	}
	if _, err := layer.Stat("/replica/katrin/run1"); !errors.Is(err, adal.ErrNotFound) {
		t.Fatalf("katrin replicated despite condition: %v", err)
	}
	got, _ := meta.Get(ds.ID)
	if !got.HasTag("replicated") {
		t.Fatal("replicated tag missing")
	}
	audit := e.Audit()
	if len(audit) != 1 || audit[0].Err != nil {
		t.Fatalf("audit = %+v", audit)
	}
}

func TestChecksumVerification(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	e.Add(Rule{
		Name:    "audit",
		Event:   OnTag,
		Tag:     "audit-me",
		Actions: []Action{VerifyChecksum()},
	})
	ds := putObject(t, layer, meta, "p", "/obj", "payload")
	if err := meta.Tag(ds.ID, "audit-me"); err != nil {
		t.Fatal(err)
	}
	got, _ := meta.Get(ds.ID)
	if !got.HasTag("verified") {
		t.Fatal("verified tag missing")
	}
}

func TestChecksumMismatchFlagsCorrupt(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	e.Add(Rule{
		Name: "audit", Event: OnTag, Tag: "audit-me",
		Actions: []Action{VerifyChecksum()},
	})
	// Register with a checksum that does not match stored content.
	w, _ := layer.Create("/bad")
	io.WriteString(w, "actual-bytes")
	w.Close()
	ds, err := meta.Create("p", "/bad", 12, strings.Repeat("0", 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Tag(ds.ID, "audit-me"); err != nil {
		t.Fatal(err)
	}
	got, _ := meta.Get(ds.ID)
	if !got.HasTag("corrupt") {
		t.Fatal("corrupt tag missing")
	}
	audit := e.Audit()
	var sawErr bool
	for _, a := range audit {
		if a.Err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatalf("audit has no error entry: %+v", audit)
	}
}

func TestConditions(t *testing.T) {
	ds := metadata.Dataset{Project: "p"}
	if !ProjectIs("p")(ds) {
		t.Fatal("condition should match")
	}
	if ProjectIs("q")(ds) {
		t.Fatal("condition should reject")
	}
}

func TestActionChainStopsOnError(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	boom := errors.New("boom")
	var ran []string
	e.Add(Rule{
		Name:  "chain",
		Event: OnCreate,
		Actions: []Action{
			ActionFunc{Label: "a", Fn: func(*Context, metadata.Dataset) error {
				ran = append(ran, "a")
				return nil
			}},
			ActionFunc{Label: "b", Fn: func(*Context, metadata.Dataset) error {
				ran = append(ran, "b")
				return boom
			}},
			ActionFunc{Label: "c", Fn: func(*Context, metadata.Dataset) error {
				ran = append(ran, "c")
				return nil
			}},
		},
	})
	putObject(t, layer, meta, "p", "/x", "d")
	if strings.Join(ran, "") != "ab" {
		t.Fatalf("ran = %v", ran)
	}
	audit := e.Audit()
	if len(audit) != 2 || audit[1].Err == nil {
		t.Fatalf("audit = %+v", audit)
	}
}

func TestTagRuleFiltersByTag(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	count := 0
	e.Add(Rule{
		Name: "specific", Event: OnTag, Tag: "hot",
		Actions: []Action{ActionFunc{Label: "n", Fn: func(*Context, metadata.Dataset) error {
			count++
			return nil
		}}},
	})
	ds := putObject(t, layer, meta, "p", "/t", "d")
	meta.Tag(ds.ID, "cold")
	meta.Tag(ds.ID, "hot")
	meta.Tag(ds.ID, "warm")
	if count != 1 {
		t.Fatalf("rule fired %d times, want 1", count)
	}
}

// cascadeCap stops a cascade the engine fails to bound, so a
// regression fails the bound check instead of looping forever.
const cascadeCap = 1000

// cascadeCases are the paths a cascade must stop on: the bus alone
// (events nest on the stack) and the engine's executor (each firing on
// a goroutine of its own).
var cascadeCases = []struct {
	name    string
	workers int
}{{"sync", 0}, {"executor", 2}}

// checkCascadeBound waits (bounded) for the store to go quiet, then
// checks that the engine tripped ErrCascade and fired at most
// maxDepth+1 times.
func checkCascadeBound(t *testing.T, e *Engine, meta *metadata.Store, fired *atomic.Int64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		meta.Flush()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("cascade still running after 10s, %d firings", fired.Load())
	}
	cascades := 0
	for _, a := range e.Audit() {
		if errors.Is(a.Err, ErrCascade) {
			cascades++
		}
	}
	if n := fired.Load(); cascades == 0 || n > maxDepth+1 {
		t.Fatalf("%d firings and %d ErrCascade; want ErrCascade within %d firings", n, cascades, maxDepth+1)
	}
}

// TestCascadeGuard: a rule that removes and re-adds its own trigger
// tag generates a fresh EventTagged every firing. The depth rides the
// events, not the call stack, so the guard stops it on every delivery
// path.
func TestCascadeGuard(t *testing.T) {
	for _, c := range cascadeCases {
		t.Run(c.name, func(t *testing.T) {
			layer, meta := newCtx(t)
			e := NewEngine(layer, meta, c.workers)
			defer e.Close()
			var fired atomic.Int64
			e.Add(Rule{
				Name: "ping", Event: OnTag, Tag: "ping",
				Actions: []Action{ActionFunc{Label: "flip", Fn: func(ctx *Context, ds metadata.Dataset) error {
					if fired.Add(1) > cascadeCap {
						return errors.New("cascade past the cap")
					}
					if err := ctx.Meta.Untag(ds.ID, "ping"); err != nil {
						return err
					}
					return ctx.Meta.Tag(ds.ID, "ping")
				}}},
			})
			ds := putObject(t, layer, meta, "p", "/loop", "d")
			if err := meta.Tag(ds.ID, "ping"); err != nil {
				t.Fatal(err)
			}
			checkCascadeBound(t, e, meta, &fired)
		})
	}
}

// TestWorkflowTriggerCascadeGuard: a triggered workflow that re-tags
// its own trigger tag is a cascade like any rule's, and stops at the
// same bound.
func TestWorkflowTriggerCascadeGuard(t *testing.T) {
	for _, c := range cascadeCases {
		t.Run(c.name, func(t *testing.T) {
			layer, meta := newCtx(t)
			e := NewEngine(layer, meta, c.workers)
			defer e.Close()
			var fired atomic.Int64
			wf := workflow.New("retag")
			wf.MustAddNode("flip", workflow.ActorFunc(func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
				if fired.Add(1) > cascadeCap {
					return nil, errors.New("cascade past the cap")
				}
				id := in["dataset.id"].(string)
				if err := ctx.Meta.Untag(id, "loop"); err != nil {
					return nil, err
				}
				return nil, ctx.Meta.Tag(id, "loop")
			}))
			e.Add(Rule{Name: "loop", Event: OnTag, Tag: "loop", Actions: RunWorkflow(wf, nil, 0)})
			ds := putObject(t, layer, meta, "p", "/loop", "d")
			if err := meta.Tag(ds.ID, "loop"); err != nil {
				t.Fatal(err)
			}
			checkCascadeBound(t, e, meta, &fired)
		})
	}
}

func TestProcessingEventRule(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	fired := 0
	e.Add(Rule{
		Name: "archive-results", Event: OnProcessing,
		Actions: []Action{ActionFunc{Label: "n", Fn: func(*Context, metadata.Dataset) error {
			fired++
			return nil
		}}},
	})
	ds := putObject(t, layer, meta, "p", "/pr", "d")
	if _, err := meta.AddProcessing(ds.ID, metadata.Processing{Tool: "seg"}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestManyDatasetsManyRules(t *testing.T) {
	layer, meta := newCtx(t)
	e := NewEngine(layer, meta, 0)
	defer e.Close()
	e.Add(Rule{
		Name: "rep", Event: OnCreate,
		Condition: func(ds metadata.Dataset) bool { return ds.Size > 10 },
		Actions:   []Action{Replicate("/replica")},
	})
	for i := 0; i < 30; i++ {
		content := strings.Repeat("x", i) // sizes 0..29
		putObject(t, layer, meta, "p", fmt.Sprintf("/m/%02d", i), content)
	}
	reps, err := layer.List("/replica/m/")
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 19 { // sizes 11..29
		t.Fatalf("replicas = %d, want 19", len(reps))
	}
	if got := meta.Find(metadata.Query{Tags: []string{"replicated"}}); len(got) != 19 {
		t.Fatalf("tagged = %d", len(got))
	}
	_ = units.Bytes(0)
}
