// Package lsdf is a from-scratch Go reproduction of "The Large Scale
// Data Facility: Data Intensive Computing for Scientific Experiments"
// (García et al., KIT, PDSEC/IPDPS 2011).
//
// It provides the paper's integrated data lifecycle as a library:
//
//	fac, _ := lsdf.New(lsdf.Options{})
//	defer fac.Close()
//	ds, _ := fac.Store("zebrafish", "/ddn/itg/img1.raw", frame, basic, "raw")
//	fac.Tag(ds.Path, "analyze")            // triggers workflows
//	out := fac.Query(lsdf.Query{Tags: []string{"processed:seg"}})
//
// The metadata repository behind the handle is one store; bulk ingest
// can batch registrations (Facility.StoreBatch, IngestWith), and
// Options.AsyncEvents moves workflow/rule triggering onto a
// background event bus with Facility.Flush as the delivery barrier.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record of every
// reproduced figure.
package lsdf

import (
	"repro/internal/core"
	"repro/internal/metadata"
	"repro/internal/units"
)

// Facility is the top-level handle; see internal/core for methods.
type Facility = core.Facility

// Options configures New.
type Options = core.Options

// Query selects datasets from the metadata DB.
type Query = metadata.Query

// Dataset is a metadata record.
type Dataset = metadata.Dataset

// Bytes is the byte-count type used across the API.
type Bytes = units.Bytes

// Size constants for convenience.
const (
	KiB = units.KiB
	MiB = units.MiB
	GiB = units.GiB
	TiB = units.TiB
	MB  = units.MB
	GB  = units.GB
	TB  = units.TB
	PB  = units.PB
)

// New assembles a facility.
func New(opts Options) (*Facility, error) { return core.New(opts) }
