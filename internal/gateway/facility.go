package gateway

import (
	"repro/internal/facility"
)

// ForFacility wires a gateway over an assembled facility: the
// facility's federated namespace (with whatever tier, replication
// federation and read cache its Options enabled), its metadata store,
// and its analysis cluster behind /v1/jobs. This is what cmd/lsdfd
// serves.
func ForFacility(f *facility.Facility, cfg Config) (*Server, error) {
	cfg.Layer = f.Layer
	cfg.Meta = f.Meta
	cfg.RunSpec = f.SubmitNamedJob
	cfg.HasJob = f.HasJobTemplate
	// The gateway instruments into the facility's shared registry and
	// trace ring, so GET /metrics is one scrape for the whole stack
	// and a request's trace carries spans from every layer it crossed.
	if cfg.Obs == nil {
		cfg.Obs = f.Obs
	}
	if cfg.Tracer == nil {
		cfg.Tracer = f.Tracer
	}
	return New(cfg)
}
