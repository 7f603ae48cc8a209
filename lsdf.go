// Package lsdf is a from-scratch Go reproduction of "The Large Scale
// Data Facility: Data Intensive Computing for Scientific Experiments"
// (García et al., KIT, PDSEC/IPDPS 2011).
//
// It provides the paper's integrated data lifecycle as a library, one
// Facility handle from checksummed ingest to MapReduce analysis:
//
//	fac, _ := lsdf.New(lsdf.Options{})
//	defer fac.Close()
//	ds, _ := fac.Store("zebrafish", "/ddn/itg/img1.raw", frame, basic, "raw")
//	fac.Tag(ds.Path, "analyze")            // triggers workflows
//	out := fac.Query(lsdf.Query{Tags: []string{"processed:seg"}})
//
// The metadata repository behind the handle is one store; bulk ingest
// batches registrations (Facility.StoreBatch: one journal commit on a
// durable store). Its events reach the rules once the mutation is
// acknowledged, on the mutating goroutine; Options.AsyncWorkflows
// moves rule firings — triggered workflows among them — onto the rule
// engine's executor, with Facility.Flush as the barrier.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record of every
// reproduced figure.
package lsdf

import (
	"context"
	"fmt"
	"io"

	"repro/internal/adal"
	"repro/internal/dfs"
	"repro/internal/facility"
	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/rules"
)

// Options configures New; see facility.Options for fields.
type Options = facility.Options

// Query selects datasets from the metadata DB.
type Query = metadata.Query

// Facility is the top-level handle.
type Facility struct {
	f *facility.Facility
}

// New assembles a facility.
func New(opts Options) (*Facility, error) {
	f, err := facility.New(opts)
	if err != nil {
		return nil, err
	}
	return &Facility{f: f}, nil
}

// Close releases background workers.
func (fc *Facility) Close() { fc.f.Close() }

// Layer exposes the ADAL federation.
func (fc *Facility) Layer() *adal.Layer { return fc.f.Layer }

// Metadata exposes the project metadata DB.
func (fc *Facility) Metadata() *metadata.Store { return fc.f.Meta }

// Ingest drains a producer through a checksumming worker pool,
// storing every object and registering it in the metadata DB.
func (fc *Facility) Ingest(ctx context.Context, prod ingest.Producer, workers int) (ingest.Stats, error) {
	return ingest.New(fc.f.Layer, fc.f.Meta, ingest.Config{Workers: workers}).Run(ctx, prod)
}

// Store writes one object and registers it, tags included — the
// single-file convenience over StoreBatch.
func (fc *Facility) Store(project, path string, data io.Reader, basic map[string]string, tags ...string) (metadata.Dataset, error) {
	r := fc.StoreBatch([]ingest.Object{{Project: project, Path: path, Data: data, Basic: basic, Tags: tags}})[0]
	return r.Dataset, r.Err
}

// StoreBatch writes a group of objects and registers them in one
// metadata batch. Results are aligned with the input; a failed item's
// stored bytes are rolled back.
func (fc *Facility) StoreBatch(objs []ingest.Object) []metadata.CreateResult {
	ptrs := make([]*ingest.Object, len(objs))
	for i := range objs {
		ptrs[i] = &objs[i]
	}
	return ingest.StoreBatch(fc.f.Layer, fc.f.Meta, ptrs)
}

// Flush blocks until every firing the rule engine's executor holds has
// finished, with the firings those caused: the barrier to call before
// inspecting rule and trigger effects under Options.AsyncWorkflows.
// Events themselves are delivered before the mutation returns.
func (fc *Facility) Flush() { fc.f.Meta.Flush() }

// Open reads a stored object.
func (fc *Facility) Open(path string) (io.ReadCloser, error) { return fc.f.Layer.Open(path) }

// Query finds datasets in the metadata DB.
func (fc *Facility) Query(q Query) []metadata.Dataset { return fc.f.Meta.Find(q) }

// Tag tags the dataset registered at path; tags drive workflow
// triggers and rules.
func (fc *Facility) Tag(path, tag string) error {
	ds, ok := fc.f.Meta.ByPath(path)
	if !ok {
		return fmt.Errorf("%w: %q", metadata.ErrNotFound, path)
	}
	return fc.f.Meta.Tag(ds.ID, tag)
}

// AddRule registers a rule. A tag-triggered workflow is one too:
// Rule{Event: rules.OnTag, Tag: tag, Actions: rules.RunWorkflow(w, nil, 0)}.
func (fc *Facility) AddRule(r rules.Rule) { fc.f.Rules.Add(r) }

// RunJob executes a MapReduce job on the analysis cluster. Input and
// output paths are cluster paths (the /hdfs mount without its prefix).
func (fc *Facility) RunJob(cfg mapreduce.Config) (*mapreduce.Result, error) {
	return fc.f.RunJob(cfg)
}

// ClusterReport summarizes the analysis cluster's DFS.
func (fc *Facility) ClusterReport() dfs.Report { return fc.f.DFS.Report() }

// Cluster exposes the analysis cluster for advanced use (repair,
// failure injection, direct file IO).
func (fc *Facility) Cluster() *dfs.Cluster { return fc.f.DFS }
