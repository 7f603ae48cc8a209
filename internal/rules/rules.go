// Package rules is the policy-driven data management layer the paper
// lists in its outlook (slide 14: "Data management system iRODS
// (ongoing)"). Like iRODS micro-services, a rule binds an event, a
// condition over the dataset, and a chain of actions; the engine
// subscribes to the metadata store and executes matching rules as
// data is created, tagged or processed. It is the facility's one
// event engine: slide 12's tag-triggered workflows are rules too, whose
// actions are RunWorkflow's.
package rules

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/workflow"
)

// On selects the metadata event a rule fires for.
type On int

// Rule trigger events.
const (
	OnCreate On = iota
	OnTag
	OnProcessing
	// OnReplica fires for replica-catalog state transitions
	// (metadata.EventReplica); Rule.State narrows to one state.
	OnReplica
)

// String implements fmt.Stringer.
func (o On) String() string {
	switch o {
	case OnCreate:
		return "on-create"
	case OnTag:
		return "on-tag"
	case OnProcessing:
		return "on-processing"
	case OnReplica:
		return "on-replica"
	}
	return fmt.Sprintf("on(%d)", int(o))
}

// Condition filters datasets. A nil condition matches everything.
type Condition func(ds metadata.Dataset) bool

// ProjectIs matches datasets of one project.
func ProjectIs(project string) Condition {
	return func(ds metadata.Dataset) bool { return ds.Project == project }
}

// Context hands facility services to actions. Meta is the store
// through CausedBy of the firing's event, so what an action mutates
// publishes one level deeper in the cascade.
type Context struct {
	Layer *adal.Layer
	Meta  *metadata.Store
}

// Action is one micro-service step.
type Action interface {
	// Name identifies the action in audit records.
	Name() string
	// Apply performs the action for a dataset.
	Apply(ctx *Context, ds metadata.Dataset) error
}

// ActionFunc adapts a function to Action.
type ActionFunc struct {
	Label string
	Fn    func(ctx *Context, ds metadata.Dataset) error
}

// Name implements Action.
func (a ActionFunc) Name() string { return a.Label }

// Apply implements Action.
func (a ActionFunc) Apply(ctx *Context, ds metadata.Dataset) error { return a.Fn(ctx, ds) }

// Replicate copies the dataset's object from its mount into dstPrefix
// (e.g. "/replica"), preserving the relative path, and tags the
// dataset with "replicated".
func Replicate(dstPrefix string) Action {
	return ActionFunc{
		Label: "replicate->" + dstPrefix,
		Fn: func(ctx *Context, ds metadata.Dataset) error {
			dst := dstPrefix + ds.Path
			if err := ctx.Layer.CopyObject(ds.Path, dst); err != nil {
				return err
			}
			return ctx.Meta.Tag(ds.ID, "replicated")
		},
	}
}

// VerifyChecksum recomputes the object checksum and compares it with
// the registered one, tagging "corrupt" on mismatch.
func VerifyChecksum() Action {
	return ActionFunc{
		Label: "verify-checksum",
		Fn: func(ctx *Context, ds metadata.Dataset) error {
			sum, err := ctx.Layer.Checksum(ds.Path)
			if err != nil {
				return err
			}
			if ds.Checksum != "" && sum != ds.Checksum {
				if terr := ctx.Meta.Tag(ds.ID, "corrupt"); terr != nil {
					return terr
				}
				return fmt.Errorf("rules: checksum mismatch for %s", ds.Path)
			}
			return ctx.Meta.Tag(ds.ID, "verified")
		},
	}
}

// AddTag tags the dataset.
func AddTag(tag string) Action {
	return ActionFunc{
		Label: "add-tag:" + tag,
		Fn: func(ctx *Context, ds metadata.Dataset) error {
			return ctx.Meta.Tag(ds.ID, tag)
		},
	}
}

// RunWorkflow is slide 12's trigger as a rule's chain of actions. The
// first runs w on the dataset, re-running a failed run up to retries
// more times, and writes the run's provenance — the paper's METADATA-N
// block — onto the dataset; the second tags it "processed:<name>". A
// failed run stops the chain, so it leaves no tag, and the audit log
// lists the run before the rules its tag fires. A nil director is
// workflow.SequentialDirector.
func RunWorkflow(w *workflow.Workflow, director workflow.Director, retries int) []Action {
	if director == nil {
		director = workflow.SequentialDirector{}
	}
	run := ActionFunc{
		Label: "workflow:" + w.Name,
		Fn: func(ctx *Context, ds metadata.Dataset) error {
			started := time.Now()
			wctx := &workflow.Context{Layer: ctx.Layer, Meta: ctx.Meta, Dataset: ds}
			var out workflow.Values
			var err error
			for attempt := 0; attempt <= retries; attempt++ {
				out, err = director.Run(w, wctx, workflow.Values{"dataset.id": ds.ID, "dataset.path": ds.Path})
				if err == nil {
					break
				}
			}
			results := map[string]string{"status": "ok"}
			if err != nil {
				results["status"] = "error"
				results["error"] = err.Error()
			}
			var outputs []string
			for k, v := range out {
				if s, ok := v.(string); ok {
					if k == "output.path" {
						outputs = append(outputs, s)
						continue
					}
					results[k] = s
				}
			}
			_, perr := ctx.Meta.AddProcessing(ds.ID, metadata.Processing{
				Tool:       "workflow:" + w.Name,
				StartedAt:  started,
				FinishedAt: time.Now(),
				Results:    results,
				Outputs:    outputs,
			})
			if err != nil {
				return err
			}
			if perr != nil {
				return fmt.Errorf("rules: provenance: %w", perr)
			}
			return nil
		},
	}
	return []Action{run, AddTag("processed:" + w.Name)}
}

// Rule is an event-condition-action triple.
type Rule struct {
	Name      string
	Event     On
	Tag       string // for OnTag: the tag that fires the rule ("" = any)
	State     string // for OnReplica: the replica state that fires it ("" = any)
	Condition Condition
	Actions   []Action
}

// AuditEntry records one rule execution.
type AuditEntry struct {
	Rule      string
	Action    string
	DatasetID string
	Path      string
	Err       error
	At        time.Time
}

// Engine evaluates rules against metadata events. Each firing's
// actions mutate the store through meta.CausedBy(ev), so an event a
// rule causes carries its chain's depth, and the engine refuses to
// fire at maxDepth: a rule that re-triggers itself stops there,
// whichever goroutine — the mutator's or the executor's — fires it.
type Engine struct {
	layer *adal.Layer
	meta  *metadata.Store
	mu    sync.Mutex
	rules []Rule
	audit []AuditEntry
	unsub func()

	// The executor: with workers > 0, each firing runs on its own
	// goroutine, at most workers at a time, registered with the
	// store's flush barrier. closed (under mu) stops hand-offs, so
	// Close's wait cannot race a new one.
	slots  chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// maxDepth bounds rule cascades: an event that maxDepth firings
// caused fires no rule and is audited as ErrCascade.
const maxDepth = 8

// ErrCascade is recorded when rule recursion exceeds the depth bound.
var ErrCascade = errors.New("rules: cascade depth exceeded")

// NewEngine attaches a rule engine to the facility services. With
// workers > 0 firings run on up to that many background goroutines,
// and meta.Flush waits for them; with 0 they run on the goroutine
// that delivers the event.
func NewEngine(layer *adal.Layer, meta *metadata.Store, workers int) *Engine {
	e := &Engine{layer: layer, meta: meta}
	if workers > 0 {
		e.slots = make(chan struct{}, workers)
	}
	e.unsub = meta.Subscribe(e.onEvent)
	return e
}

// Close detaches the engine from the store and waits for the firings
// its executor holds.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if e.unsub != nil {
		e.unsub()
		e.unsub = nil
	}
	e.wg.Wait()
}

// Add registers a rule.
func (e *Engine) Add(r Rule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append(e.rules, r)
}

// Audit returns a copy of the audit log.
func (e *Engine) Audit() []AuditEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]AuditEntry(nil), e.audit...)
}

func (e *Engine) record(r Rule, action string, ds metadata.Dataset, err error) {
	e.mu.Lock()
	e.audit = append(e.audit, AuditEntry{
		Rule: r.Name, Action: action, DatasetID: ds.ID,
		Path: ds.Path, Err: err, At: time.Now(),
	})
	e.mu.Unlock()
}

func (e *Engine) onEvent(ev metadata.Event) {
	var on On
	switch ev.Type {
	case metadata.EventCreated:
		on = OnCreate
	case metadata.EventTagged:
		on = OnTag
	case metadata.EventProcessingAdded:
		on = OnProcessing
	case metadata.EventReplica:
		on = OnReplica
	default:
		return
	}
	e.mu.Lock()
	var matched []Rule
	for _, r := range e.rules {
		if r.Event != on {
			continue
		}
		if on == OnTag && r.Tag != "" && r.Tag != ev.Tag {
			continue
		}
		if on == OnReplica && r.State != "" && r.State != ev.Placement {
			continue
		}
		if r.Condition != nil && !r.Condition(ev.Dataset) {
			continue
		}
		matched = append(matched, r)
	}
	e.mu.Unlock()
	if len(matched) == 0 {
		return
	}
	if ev.Depth >= maxDepth {
		e.record(matched[0], "", ev.Dataset, ErrCascade)
		return
	}
	if e.slots == nil {
		e.fire(matched, ev)
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.wg.Add(1)
	e.mu.Unlock()
	release := e.meta.HoldFlush()
	go func() {
		defer e.wg.Done()
		defer release()
		e.slots <- struct{}{}
		defer func() { <-e.slots }()
		e.fire(matched, ev)
	}()
}

// fire runs each matched rule's actions in order, stopping a rule's
// chain at its first error.
func (e *Engine) fire(matched []Rule, ev metadata.Event) {
	ctx := &Context{Layer: e.layer, Meta: e.meta.CausedBy(ev)}
	for _, r := range matched {
		for _, a := range r.Actions {
			err := a.Apply(ctx, ev.Dataset)
			e.record(r, a.Name(), ev.Dataset, err)
			if err != nil {
				break // remaining actions of this rule are skipped
			}
		}
	}
}
