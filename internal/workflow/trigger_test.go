package workflow_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/rules"
	"repro/internal/workflow"
)

// newEngine mounts one in-memory store at / and attaches a rule engine
// with an executor of workers goroutines (0: inline) to a new
// metadata store.
func newEngine(t *testing.T, workers int) (*adal.Layer, *metadata.Store, *rules.Engine) {
	t.Helper()
	layer := adal.NewLayer()
	if err := layer.Mount("/", adal.NewMemFS("store")); err != nil {
		t.Fatal(err)
	}
	meta := metadata.NewStore()
	e := rules.NewEngine(layer, meta, workers)
	t.Cleanup(e.Close)
	return layer, meta, e
}

// trigger is slide 12's tag trigger: tagging a dataset with tag runs w
// on it.
func trigger(tag string, w *workflow.Workflow, retries int) rules.Rule {
	return rules.Rule{Name: "on-" + tag, Event: rules.OnTag, Tag: tag,
		Actions: rules.RunWorkflow(w, nil, retries)}
}

// runs returns the audit log's workflow runs, in order.
func runs(e *rules.Engine) []rules.AuditEntry {
	var out []rules.AuditEntry
	for _, a := range e.Audit() {
		if strings.HasPrefix(a.Action, "workflow:") {
			out = append(out, a)
		}
	}
	return out
}

// analysisWorkflow reads the triggering dataset, derives a result
// object, and reports its path.
func analysisWorkflow(t *testing.T) *workflow.Workflow {
	t.Helper()
	w := workflow.New("zebrafish-analysis")
	w.MustAddNode("read", workflow.ActorFunc(func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
		r, err := ctx.Layer.Open(in["dataset.path"].(string))
		if err != nil {
			return nil, err
		}
		defer r.Close()
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		return workflow.Values{"bytes": fmt.Sprint(len(data)), "data": data}, nil
	}))
	w.MustAddNode("segment", workflow.ActorFunc(func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
		data := in["data"].([]byte)
		outPath := in["dataset.path"].(string) + ".segmented"
		wtr, err := ctx.Layer.Create(outPath)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(wtr, "segmented %d bytes", len(data))
		wtr.Close()
		return workflow.Values{"output.path": outPath, "cells": "42"}, nil
	}), "read")
	return w
}

func TestTagTriggeredRunWithProvenance(t *testing.T) {
	layer, meta, e := newEngine(t, 0)
	e.Add(trigger("analyze", analysisWorkflow(t), 0))

	// Ingest one object manually.
	w, _ := layer.Create("/itg/img1")
	io.WriteString(w, strings.Repeat("p", 512))
	w.Close()
	ds, err := meta.Create("zebrafish", "/itg/img1", 512, "", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Tagging runs the workflow synchronously.
	if err := meta.Tag(ds.ID, "analyze"); err != nil {
		t.Fatal(err)
	}

	if hist := runs(e); len(hist) != 1 || hist[0].Err != nil {
		t.Fatalf("runs = %+v", hist)
	}
	// Result object exists.
	if _, err := layer.Stat("/itg/img1.segmented"); err != nil {
		t.Fatalf("derived object missing: %v", err)
	}
	// Provenance recorded on the dataset.
	got, _ := meta.Get(ds.ID)
	if len(got.Processings) != 1 {
		t.Fatalf("processings = %+v", got.Processings)
	}
	p := got.Processings[0]
	if p.Tool != "workflow:zebrafish-analysis" || p.Results["status"] != "ok" ||
		p.Results["cells"] != "42" || len(p.Outputs) != 1 {
		t.Fatalf("provenance = %+v", p)
	}
	if !got.HasTag("processed:zebrafish-analysis") {
		t.Fatal("completion tag missing")
	}
}

func TestTriggerOnlyOnMatchingTag(t *testing.T) {
	layer, meta, e := newEngine(t, 0)
	e.Add(trigger("analyze", analysisWorkflow(t), 0))
	w, _ := layer.Create("/x")
	io.WriteString(w, "d")
	w.Close()
	ds, _ := meta.Create("p", "/x", 1, "", nil)
	if err := meta.Tag(ds.ID, "unrelated"); err != nil {
		t.Fatal(err)
	}
	if len(runs(e)) != 0 {
		t.Fatal("unrelated tag triggered a run")
	}
	// Re-tagging with same tag is idempotent: no second run.
	if err := meta.Tag(ds.ID, "analyze"); err != nil {
		t.Fatal(err)
	}
	if err := meta.Tag(ds.ID, "analyze"); err != nil {
		t.Fatal(err)
	}
	if got := len(runs(e)); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
}

func TestFailedRunRecordsErrorProvenance(t *testing.T) {
	_, meta, e := newEngine(t, 0)
	wf := workflow.New("broken")
	wf.MustAddNode("explode", workflow.ActorFunc(func(*workflow.Context, workflow.Values) (workflow.Values, error) {
		return nil, errors.New("detector offline")
	}))
	e.Add(trigger("go", wf, 0))
	ds, _ := meta.Create("p", "/y", 1, "", nil)
	if err := meta.Tag(ds.ID, "go"); err != nil {
		t.Fatal(err)
	}
	got, _ := meta.Get(ds.ID)
	if len(got.Processings) != 1 {
		t.Fatalf("processings = %d", len(got.Processings))
	}
	if got.Processings[0].Results["status"] != "error" {
		t.Fatalf("provenance = %+v", got.Processings[0])
	}
	if got.HasTag("processed:broken") {
		t.Fatal("failed run must not set the completion tag")
	}
	if hist := runs(e); len(hist) != 1 || hist[0].Err == nil {
		t.Fatalf("runs = %+v", hist)
	}
}

// TestAsyncTriggers: on the engine's executor a Tag returns before
// the run, and Flush waits for every triggered run and its
// provenance.
func TestAsyncTriggers(t *testing.T) {
	layer, meta, e := newEngine(t, 4)
	e.Add(trigger("analyze", analysisWorkflow(t), 0))
	const n = 12
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/a/%02d", i)
		w, _ := layer.Create(path)
		io.WriteString(w, "data")
		w.Close()
		ds, err := meta.Create("p", path, 4, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := meta.Tag(ds.ID, "analyze"); err != nil {
			t.Fatal(err)
		}
	}
	meta.Flush()
	if got := len(runs(e)); got != n {
		t.Fatalf("runs = %d, want %d", got, n)
	}
	for _, rec := range runs(e) {
		if rec.Err != nil {
			t.Fatalf("run failed: %+v", rec)
		}
	}
	if got := meta.Find(metadata.Query{Tags: []string{"processed:zebrafish-analysis"}}); len(got) != n {
		t.Fatalf("processed = %d, want %d", len(got), n)
	}
}

func TestTriggerRetries(t *testing.T) {
	_, meta, e := newEngine(t, 0)
	attempts := 0
	wf := workflow.New("flaky")
	wf.MustAddNode("step", workflow.ActorFunc(func(*workflow.Context, workflow.Values) (workflow.Values, error) {
		attempts++
		if attempts < 3 {
			return nil, errors.New("transient")
		}
		return workflow.Values{"ok": "yes"}, nil
	}))
	e.Add(trigger("go", wf, 3))
	ds, _ := meta.Create("p", "/retry", 1, "", nil)
	if err := meta.Tag(ds.ID, "go"); err != nil {
		t.Fatal(err)
	}
	if hist := runs(e); len(hist) != 1 || hist[0].Err != nil {
		t.Fatalf("runs = %+v", hist)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	got, _ := meta.Get(ds.ID)
	if !got.HasTag("processed:flaky") {
		t.Fatal("completion tag missing after retried success")
	}
}

func TestTriggerRetriesExhausted(t *testing.T) {
	_, meta, e := newEngine(t, 0)
	attempts := 0
	wf := workflow.New("doomed")
	wf.MustAddNode("step", workflow.ActorFunc(func(*workflow.Context, workflow.Values) (workflow.Values, error) {
		attempts++
		return nil, errors.New("permanent")
	}))
	e.Add(trigger("go", wf, 2))
	ds, _ := meta.Create("p", "/doomed", 1, "", nil)
	if err := meta.Tag(ds.ID, "go"); err != nil {
		t.Fatal(err)
	}
	if hist := runs(e); len(hist) != 1 || hist[0].Err == nil || attempts != 3 {
		t.Fatalf("runs = %+v after %d attempts", hist, attempts)
	}
}

func TestWorkflowChaining(t *testing.T) {
	// Workflow A's completion tag triggers workflow B.
	_, meta, e := newEngine(t, 0)
	mkWF := func(name string) *workflow.Workflow {
		w := workflow.New(name)
		w.MustAddNode("step", workflow.ActorFunc(func(*workflow.Context, workflow.Values) (workflow.Values, error) {
			return workflow.Values{"by": name}, nil
		}))
		return w
	}
	e.Add(trigger("start", mkWF("first"), 0))
	e.Add(trigger("processed:first", mkWF("second"), 0))
	ds, _ := meta.Create("p", "/chain", 1, "", nil)
	if err := meta.Tag(ds.ID, "start"); err != nil {
		t.Fatal(err)
	}
	hist := runs(e)
	if len(hist) != 2 || hist[0].Action != "workflow:first" || hist[1].Action != "workflow:second" {
		t.Fatalf("runs = %+v", hist)
	}
	got, _ := meta.Get(ds.ID)
	if len(got.Processings) != 2 {
		t.Fatalf("processings = %d", len(got.Processings))
	}
}
