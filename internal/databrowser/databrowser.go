// Package databrowser is the end-user tool of slide 9: "graphical
// tool for exploring and managing the LSDF data, based on ADAL-API,
// connects to the meta-data repository, will be available as web
// GUI". This implementation provides the browsing/tagging/triggering
// API, a CLI front end (cmd/databrowser) and a minimal JSON web
// endpoint standing in for the announced web GUI.
//
// The browser is a read-mostly client of the sharded metadata store:
// List and Stat join storage listings against per-path lookups (one
// path-shard lock each), and Find fans out across all metadata
// shards in parallel. Tag is the workflow-trigger entry point; when
// the store runs its async event bus, Tag returns before the
// triggered workflows do — callers that need the effects call
// metadata.Store.Flush.
package databrowser

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/units"
)

// Entry is one browse row: storage view joined with metadata view.
type Entry struct {
	Path       string      `json:"path"`
	Size       units.Bytes `json:"size"`
	Registered bool        `json:"registered"`
	DatasetID  string      `json:"dataset_id,omitempty"`
	Project    string      `json:"project,omitempty"`
	Tags       []string    `json:"tags,omitempty"`
	// Placement is the storage-tier state (resident, premigrated,
	// migrated) when the path is served by a tiering backend; empty
	// for untiered mounts.
	Placement string `json:"placement,omitempty"`
	// Replicas and ReplicaSites report the multi-site replica count
	// and locations when the path is served by a replication
	// federation; zero/empty for unfederated mounts.
	Replicas     int      `json:"replicas,omitempty"`
	ReplicaSites []string `json:"replica_sites,omitempty"`
	// Cached is the read-cache tier holding the object ("memory" or
	// "disk") when the path is served through a read cache; empty
	// when uncached or uncacheable.
	Cached string `json:"cached,omitempty"`
}

// cacheReporter is implemented by read-cache backends, discovered
// structurally through the mount table: the cache's counter snapshot.
type cacheReporter interface {
	CacheCounters() map[string]uint64
}

// entry joins one Stat result — its listing facts come from whatever
// backends serve the path — with the metadata record, when one exists.
func (b *Browser) entry(info adal.FileInfo) Entry {
	e := Entry{
		Path: info.Path, Size: info.Size, Placement: info.Placement,
		Replicas: len(info.Replicas), ReplicaSites: info.Replicas, Cached: info.Cached,
	}
	if ds, ok := b.meta.ByPath(info.Path); ok {
		e.Registered = true
		e.DatasetID = ds.ID
		e.Project = ds.Project
		e.Tags = ds.Tags
	}
	return e
}

// CacheStats reports the read-cache counters of the mount serving
// prefix, or ok=false when that mount has no cache.
func (b *Browser) CacheStats(prefix string) (map[string]uint64, bool) {
	be, _, err := b.layer.Resolve(prefix)
	if err != nil {
		return nil, false
	}
	cr, ok := be.(cacheReporter)
	if !ok {
		return nil, false
	}
	return cr.CacheCounters(), true
}

// Browser joins the ADAL layer with the metadata repository.
type Browser struct {
	layer *adal.Layer
	meta  *metadata.Store
	reg   *obs.Registry
	mReq  *obs.CounterVec
}

// New creates a browser with a private metrics registry; SetObs
// swaps in a shared one.
func New(layer *adal.Layer, meta *metadata.Store) *Browser {
	b := &Browser{layer: layer, meta: meta}
	b.SetObs(obs.New())
	return b
}

// SetObs points the browser's instrumentation (per-endpoint request
// counters, the registry Handler serves at GET /metrics) at reg —
// the facility calls this so browser traffic lands in the shared
// facility-wide exposition.
func (b *Browser) SetObs(reg *obs.Registry) {
	b.reg = reg
	b.mReq = reg.CounterVec("lsdf_browser_requests_total", "DataBrowser web API requests.", "endpoint")
}

// List browses a federated prefix, one Stat per object listed.
func (b *Browser) List(prefix string) ([]Entry, error) {
	infos, err := b.layer.List(prefix)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(infos))
	for _, info := range infos {
		if st, err := b.layer.Stat(info.Path); err == nil {
			info = st
		}
		out = append(out, b.entry(info))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Stat returns the entry for one path.
func (b *Browser) Stat(path string) (Entry, error) {
	info, err := b.layer.Stat(path)
	if err != nil {
		return Entry{}, err
	}
	return b.entry(info), nil
}

// Dataset returns the full metadata record for a path.
func (b *Browser) Dataset(path string) (metadata.Dataset, error) {
	ds, ok := b.meta.ByPath(path)
	if !ok {
		return metadata.Dataset{}, fmt.Errorf("%w: %q", metadata.ErrNotFound, path)
	}
	return ds, nil
}

// Tag tags the dataset registered at path. Tagging is the browser's
// workflow-trigger mechanism (slide 12).
func (b *Browser) Tag(path, tag string) error {
	ds, ok := b.meta.ByPath(path)
	if !ok {
		return fmt.Errorf("%w: %q", metadata.ErrNotFound, path)
	}
	return b.meta.Tag(ds.ID, tag)
}

// Untag removes a tag from the dataset at path.
func (b *Browser) Untag(path, tag string) error {
	ds, ok := b.meta.ByPath(path)
	if !ok {
		return fmt.Errorf("%w: %q", metadata.ErrNotFound, path)
	}
	return b.meta.Untag(ds.ID, tag)
}

// Preview returns the first n bytes of an object.
func (b *Browser) Preview(path string, n int) ([]byte, error) {
	r, err := b.layer.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buf := make([]byte, n)
	read, err := io.ReadFull(r, buf)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && err != io.EOF {
		return nil, err
	}
	return buf[:read], nil
}

// Find proxies metadata queries for browser clients.
func (b *Browser) Find(q metadata.Query) []metadata.Dataset {
	return b.meta.Find(q)
}

// Handler returns the JSON web API (the "web GUI" stand-in):
//
//	GET  /list?prefix=/ddn          -> []Entry
//	GET  /stat?path=/ddn/x          -> Entry
//	GET  /dataset?path=/ddn/x       -> metadata.Dataset
//	GET  /find?project=p&tag=t      -> []metadata.Dataset
//	GET  /cache?prefix=/sites       -> read-cache counters
//	GET  /metrics                   -> Prometheus exposition
//	POST /tag?path=/ddn/x&tag=hot   -> 204
//	POST /untag?path=/ddn/x&tag=hot -> 204
func (b *Browser) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, endpoint string, fn http.HandlerFunc) {
		hits := b.mReq.With(endpoint)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			hits.Inc()
			fn(w, r)
		})
	}
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
	fail := func(w http.ResponseWriter, err error) {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, metadata.ErrNotFound), errors.Is(err, adal.ErrNotFound):
			code = http.StatusNotFound
		case errors.Is(err, adal.ErrNoMount):
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
	}
	handle("GET /list", "list", func(w http.ResponseWriter, r *http.Request) {
		entries, err := b.List(r.URL.Query().Get("prefix"))
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, entries)
	})
	handle("GET /stat", "stat", func(w http.ResponseWriter, r *http.Request) {
		e, err := b.Stat(r.URL.Query().Get("path"))
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, e)
	})
	handle("GET /dataset", "dataset", func(w http.ResponseWriter, r *http.Request) {
		ds, err := b.Dataset(r.URL.Query().Get("path"))
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, ds)
	})
	handle("GET /find", "find", func(w http.ResponseWriter, r *http.Request) {
		q := metadata.Query{
			Project:    r.URL.Query().Get("project"),
			PathPrefix: r.URL.Query().Get("prefix"),
		}
		if tag := r.URL.Query().Get("tag"); tag != "" {
			q.Tags = strings.Split(tag, ",")
		}
		writeJSON(w, b.Find(q))
	})
	handle("GET /cache", "cache", func(w http.ResponseWriter, r *http.Request) {
		stats, ok := b.CacheStats(r.URL.Query().Get("prefix"))
		if !ok {
			http.Error(w, "no read cache on that mount", http.StatusNotFound)
			return
		}
		writeJSON(w, stats)
	})
	handle("POST /tag", "tag", func(w http.ResponseWriter, r *http.Request) {
		if err := b.Tag(r.URL.Query().Get("path"), r.URL.Query().Get("tag")); err != nil {
			fail(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	handle("POST /untag", "untag", func(w http.ResponseWriter, r *http.Request) {
		if err := b.Untag(r.URL.Query().Get("path"), r.URL.Query().Get("tag")); err != nil {
			fail(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.Handle("GET /metrics", b.reg.Handler())
	return mux
}
