// Package workflow is the LSDF workflow orchestration layer (slides
// 12-13): "help the users automate the workflows ... allow tagging
// data and triggering execution via DataBrowser. Data from finished
// workflows stored and tagged in DB. Integrated with the Kepler
// workflow orchestrator."
//
// Following Kepler's model, a Workflow is a directed acyclic graph of
// Actors; a Director decides the execution discipline (sequential or
// parallel). Tags trigger workflows through the rule engine: a rule
// on a tag whose actions are rules.RunWorkflow runs the workflow on
// the tagged dataset, writes a provenance record (the paper's
// "processing N metadata + results N") back onto it and tags it
// "processed:<name>". Delivery, retries, the executor and the cascade
// bound live in package rules; this package holds the graph and its
// directors.
package workflow

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/adal"
	"repro/internal/metadata"
)

// Values carries named data between actors. Keys are port names.
type Values map[string]any

// clone shallow-copies a Values map.
func (v Values) clone() Values {
	out := make(Values, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Context gives actors access to facility services during execution.
type Context struct {
	Layer   *adal.Layer
	Meta    *metadata.Store
	Dataset metadata.Dataset // the triggering dataset, zero for ad-hoc runs
}

// Actor is one processing step.
type Actor interface {
	// Execute consumes the merged outputs of upstream nodes and
	// produces this node's outputs.
	Execute(ctx *Context, in Values) (Values, error)
}

// ActorFunc adapts a function to Actor.
type ActorFunc func(ctx *Context, in Values) (Values, error)

// Execute implements Actor.
func (f ActorFunc) Execute(ctx *Context, in Values) (Values, error) { return f(ctx, in) }

// Errors reported by graph construction and validation.
var (
	ErrDuplicateNode = errors.New("workflow: duplicate node")
	ErrUnknownDep    = errors.New("workflow: unknown dependency")
	ErrCycle         = errors.New("workflow: graph has a cycle")
)

type node struct {
	name  string
	actor Actor
	deps  []string
}

// Workflow is a named DAG of actors.
type Workflow struct {
	Name  string
	nodes map[string]*node
	order []string // insertion order, for deterministic reporting
}

// New creates an empty workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name, nodes: make(map[string]*node)}
}

// AddNode registers an actor under name, depending on deps.
func (w *Workflow) AddNode(name string, actor Actor, deps ...string) error {
	if _, dup := w.nodes[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, name)
	}
	w.nodes[name] = &node{name: name, actor: actor, deps: deps}
	w.order = append(w.order, name)
	return nil
}

// MustAddNode is AddNode that panics; for static graph construction.
func (w *Workflow) MustAddNode(name string, actor Actor, deps ...string) {
	if err := w.AddNode(name, actor, deps...); err != nil {
		panic(err)
	}
}

// Validate checks that dependencies exist and the graph is acyclic,
// returning a topological order.
func (w *Workflow) Validate() ([]string, error) {
	indeg := make(map[string]int, len(w.nodes))
	out := make(map[string][]string, len(w.nodes))
	for _, n := range w.nodes {
		for _, d := range n.deps {
			if _, ok := w.nodes[d]; !ok {
				return nil, fmt.Errorf("%w: %q needs %q", ErrUnknownDep, n.name, d)
			}
			indeg[n.name]++
			out[d] = append(out[d], n.name)
		}
	}
	var ready []string
	for _, name := range w.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	var topo []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		topo = append(topo, n)
		next := append([]string(nil), out[n]...)
		sort.Strings(next)
		for _, m := range next {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
		sort.Strings(ready)
	}
	if len(topo) != len(w.nodes) {
		return nil, ErrCycle
	}
	return topo, nil
}

// Director executes a validated workflow.
type Director interface {
	Run(w *Workflow, ctx *Context, init Values) (Values, error)
}

// SequentialDirector runs nodes one at a time in topological order —
// Kepler's SDF director discipline.
type SequentialDirector struct{}

// Run implements Director. The returned Values merge every node's
// outputs, later nodes overriding earlier ones on key collisions.
func (SequentialDirector) Run(w *Workflow, ctx *Context, init Values) (Values, error) {
	topo, err := w.Validate()
	if err != nil {
		return nil, err
	}
	outputs := make(map[string]Values, len(topo))
	final := init.clone()
	for _, name := range topo {
		n := w.nodes[name]
		in := gatherInputs(init, outputs, n)
		out, err := n.actor.Execute(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("workflow %s: node %s: %w", w.Name, name, err)
		}
		outputs[name] = out
		for k, v := range out {
			final[k] = v
		}
	}
	return final, nil
}

// ParallelDirector runs independent nodes concurrently — Kepler's PN
// director discipline. MaxParallel bounds concurrency (0 = unbounded).
type ParallelDirector struct {
	MaxParallel int
}

// Run implements Director.
func (d ParallelDirector) Run(w *Workflow, ctx *Context, init Values) (Values, error) {
	if _, err := w.Validate(); err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		outputs  = make(map[string]Values, len(w.nodes))
		done     = make(map[string]bool, len(w.nodes))
		running  = make(map[string]bool, len(w.nodes))
		firstErr error
		wg       sync.WaitGroup
	)
	var sem chan struct{}
	if d.MaxParallel > 0 {
		sem = make(chan struct{}, d.MaxParallel)
	}
	cond := sync.NewCond(&mu)

	runnable := func() []string {
		var out []string
		for _, name := range w.order {
			n := w.nodes[name]
			if done[name] || running[name] {
				continue
			}
			ok := true
			for _, dep := range n.deps {
				if !done[dep] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return out
	}

	mu.Lock()
	for len(done) < len(w.nodes) && firstErr == nil {
		batch := runnable()
		if len(batch) == 0 {
			cond.Wait()
			continue
		}
		for _, name := range batch {
			running[name] = true
			n := w.nodes[name]
			in := gatherInputs(init, outputs, n)
			wg.Add(1)
			go func(name string, n *node, in Values) {
				defer wg.Done()
				if sem != nil {
					sem <- struct{}{}
					defer func() { <-sem }()
				}
				out, err := n.actor.Execute(ctx, in)
				mu.Lock()
				defer mu.Unlock()
				running[name] = false
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("workflow %s: node %s: %w", w.Name, name, err)
				} else if err == nil {
					outputs[name] = out
					done[name] = true
				}
				cond.Broadcast()
			}(name, n, in)
		}
		cond.Wait()
	}
	mu.Unlock()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	final := init.clone()
	for _, name := range w.order {
		if out, ok := outputs[name]; ok {
			for k, v := range out {
				final[k] = v
			}
		}
	}
	return final, nil
}

// gatherInputs merges init with the outputs of a node's dependencies
// in declared order (later deps win on collision).
func gatherInputs(init Values, outputs map[string]Values, n *node) Values {
	in := init.clone()
	for _, dep := range n.deps {
		for k, v := range outputs[dep] {
			in[k] = v
		}
	}
	return in
}
