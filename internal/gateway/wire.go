package gateway

import (
	"time"

	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/units"
)

// Wire types shared by the server and internal/gateway/client. Object
// bodies never appear here — they stream as raw HTTP bodies; JSON
// carries only control-plane payloads (ingest batches ride as base64
// inside IngestObject.Data, the bulk-registration path for small DAQ
// objects).

// ErrorEnvelope is the one shape every gateway error takes.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the machine-readable error.
type ErrorBody struct {
	Code    string `json:"code"`
	Status  int    `json:"status"`
	Message string `json:"message"`
}

// ObjectInfo is one namespace entry, joined with its dataset record
// when the object is registered.
type ObjectInfo struct {
	Path      string      `json:"path"`
	Size      units.Bytes `json:"size"`
	ModTime   time.Time   `json:"mod_time"`
	IsDir     bool        `json:"is_dir,omitempty"`
	DatasetID string      `json:"dataset_id,omitempty"`
	Project   string      `json:"project,omitempty"`
	Tags      []string    `json:"tags,omitempty"`
	Checksum  string      `json:"checksum,omitempty"`
}

// ListResult is the /v1/list response.
type ListResult struct {
	Objects []ObjectInfo `json:"objects"`
}

// PutResult acknowledges a stored (and possibly registered) object.
type PutResult struct {
	Path      string      `json:"path"`
	Size      units.Bytes `json:"size"`
	SHA256    string      `json:"sha256"`
	DatasetID string      `json:"dataset_id,omitempty"`
}

// RemoveResult acknowledges a deletion.
type RemoveResult struct {
	Path      string `json:"path"`
	Removed   bool   `json:"removed"`
	DatasetID string `json:"dataset_id,omitempty"`
}

// DatasetsResult is the /v1/datasets response.
type DatasetsResult struct {
	Datasets []metadata.Dataset `json:"datasets"`
}

// TagRequest tags or untags the dataset at a path.
type TagRequest struct {
	Path string `json:"path"`
	Tag  string `json:"tag"`
}

// IngestObject is one object in a batched ingest: bytes inline
// (base64 over the wire) plus its registration.
type IngestObject struct {
	Path    string            `json:"path"`
	Project string            `json:"project"`
	Data    []byte            `json:"data"`
	Basic   map[string]string `json:"basic,omitempty"`
	Tags    []string          `json:"tags,omitempty"`
}

// IngestRequest is the /v1/ingest body.
type IngestRequest struct {
	Objects []IngestObject `json:"objects"`
}

// IngestObjectResult reports one ingest outcome; Error is empty on
// success. A 200 response with every Error empty means every object
// is stored and registered — durably, when the store journals.
type IngestObjectResult struct {
	Path      string      `json:"path"`
	DatasetID string      `json:"dataset_id,omitempty"`
	Size      units.Bytes `json:"size,omitempty"`
	SHA256    string      `json:"sha256,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// IngestResult is the /v1/ingest response.
type IngestResult struct {
	Results    []IngestObjectResult `json:"results"`
	Registered int                  `json:"registered"`
}

// JobRequest submits a named analysis job over DFS paths.
type JobRequest struct {
	// Job names a server-side job template (mapreduce.Registry).
	Job string `json:"job"`
	// Inputs are analysis-cluster (DFS) paths.
	Inputs []string `json:"inputs"`
	// OutputDir is the DFS prefix reducers write under.
	OutputDir string `json:"output_dir"`
	// NumReducers defaults to the template's choice (usually 1).
	NumReducers int `json:"num_reducers,omitempty"`
	// Args parameterize the template (e.g. grep's pattern).
	Args map[string]string `json:"args,omitempty"`
}

// Job states.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the /v1/jobs view of one submitted job.
type JobStatus struct {
	ID          string             `json:"id"`
	Job         string             `json:"job"`
	Tenant      string             `json:"tenant"`
	State       string             `json:"state"`
	Error       string             `json:"error,omitempty"`
	DurationMS  int64              `json:"duration_ms,omitempty"`
	Counters    mapreduce.Counters `json:"counters"`
	OutputFiles []string           `json:"output_files,omitempty"`
}

// JobsResult is the /v1/jobs list response.
type JobsResult struct {
	Jobs []JobStatus `json:"jobs"`
}

// MetricsResult is the /v1/metrics response: the calling tenant's
// own traffic (tenants never see each other's counters).
type MetricsResult struct {
	Tenant   string      `json:"tenant"`
	Stats    TenantStats `json:"stats"`
	Draining bool        `json:"draining"`
}
