// Package core is the public face of the LSDF reproduction: one
// Facility handle that exposes the paper's integrated data lifecycle
// — ingest with checksums and metadata registration, unified access
// through ADAL, querying and tagging datasets, tag-triggered
// Kepler-style workflows with provenance, policy-driven data
// management, and MapReduce analysis on the Hadoop cluster.
//
// The metadata repository behind the handle is one store (see
// internal/metadata), and the bulk paths (Ingest with a batch size,
// StoreBatch) register whole groups of datasets in one batch — on a
// durable store, one journal commit. Event delivery to workflow
// triggers and rules is synchronous by default; with
// Options.AsyncEvents it moves to a background bus, and Flush is the
// barrier that waits for all deliveries.
//
// Downstream users import the repository root (package lsdf), which
// re-exports this API.
package core

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
	"repro/internal/units"
)

// Options configures a facility; see facility.Options for fields.
type Options = facility.Options

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

// Rules exposes the rule engine: policies and workflow triggers.
func (fc *Facility) Rules() *rules.Engine { return fc.f.Rules }

// Ingest drains a producer through a checksumming worker pool,
// storing every object and registering it in the metadata DB.
func (fc *Facility) Ingest(ctx context.Context, prod ingest.Producer, workers int) (ingest.Stats, error) {
	return fc.IngestWith(ctx, prod, ingest.Config{Workers: workers})
}

// IngestWith is Ingest with full pipeline configuration — batch
// size, error observer.
func (fc *Facility) IngestWith(ctx context.Context, prod ingest.Producer, cfg ingest.Config) (ingest.Stats, error) {
	pipe := ingest.New(fc.f.Layer, fc.f.Meta, cfg)
	return pipe.Run(ctx, prod)
}

// Store writes one object and registers it, tags included — the
// single-file convenience over StoreBatch.
func (fc *Facility) Store(project, path string, data io.Reader, basic map[string]string, tags ...string) (metadata.Dataset, error) {
	r := fc.StoreBatch([]ingest.Object{{Project: project, Path: path, Data: data, Basic: basic, Tags: tags}})[0]
	return r.Dataset, r.Err
}

// StoreBatch writes a group of objects and registers them in one
// metadata batch (ingest.StoreBatch).
// Results are per-item and aligned with the input; a failed item's
// stored bytes are rolled back so the facility never holds
// unregistered data.
func (fc *Facility) StoreBatch(objs []ingest.Object) []metadata.CreateResult {
	ptrs := make([]*ingest.Object, len(objs))
	for i := range objs {
		ptrs[i] = &objs[i]
	}
	return ingest.StoreBatch(fc.f.Layer, fc.f.Meta, ptrs)
}

// Flush blocks until every metadata event published so far has been
// delivered to the rule engine, and until every firing its executor
// (Options.AsyncWorkflows) holds — workflow runs included — has
// finished. With the default synchronous event mode and no executor
// it returns immediately; with Options.AsyncEvents (or
// AsyncWorkflows) it is the barrier to call before inspecting rule
// and trigger effects.
func (fc *Facility) Flush() { fc.f.Meta.Flush() }

// Open reads a stored object.
func (fc *Facility) Open(path string) (io.ReadCloser, error) { return fc.f.Layer.Open(path) }

// Query finds datasets in the metadata DB.
func (fc *Facility) Query(q metadata.Query) []metadata.Dataset { return fc.f.Meta.Find(q) }

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

// Cluster exposes the analysis cluster for advanced use (balancer,
// failure injection, direct file IO).
func (fc *Facility) Cluster() *dfs.Cluster { return fc.f.DFS }

// Bytes re-exports the unit type used across the API.
type Bytes = units.Bytes
