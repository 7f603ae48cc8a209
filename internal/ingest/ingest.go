// Package ingest is the DAQ-to-facility pipeline (slides 5/7): data
// produced by experiment acquisition systems streams into LSDF
// storage and is simultaneously registered — with checksum and basic
// metadata — in the project metadata DB, because "invisible
// (not-found, no-metadata) data is lost data".
//
// The pipeline is a real concurrent worker pool over the ADAL layer:
// producers hand over objects, workers checksum and store them, and
// every stored object becomes a metadata dataset, optionally tagged
// so rule engines and workflow triggers can react.
//
// StoreBatch is the facility's one store-and-register rule: store
// checksummed, register every stored object (tags included) in one
// metadata.CreateBatch, remove the bytes of any object whose
// registration failed. The pipeline, core.Store/StoreBatch, the
// gateway's ingest and PUT ?project= handlers and lsdfctl ingest all
// call it; none of them re-implements the rollback.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/units"
)

// Object is one unit of acquisition output.
type Object struct {
	Project string
	Path    string // target federated path
	Data    io.Reader
	Basic   map[string]string // experiment-specific basic metadata
	Tags    []string          // applied atomically with the registration
}

// Producer yields objects until io.EOF. Implementations need not be
// safe for concurrent use; the pipeline serializes Next calls.
type Producer interface {
	Next() (*Object, error)
}

// SliceProducer serves a fixed set of objects, mainly for tests.
type SliceProducer struct {
	Objects []*Object
	i       int
}

// Next implements Producer.
func (s *SliceProducer) Next() (*Object, error) {
	if s.i >= len(s.Objects) {
		return nil, io.EOF
	}
	o := s.Objects[s.i]
	s.i++
	return o, nil
}

// Premigrater is implemented by ADAL backends that can eagerly copy
// a freshly stored object toward their cold tier (the tiering
// backend): premigrate-on-ingest makes later watermark migrations a
// cheap stub swap instead of a full copy, at the price of writing
// every ingested byte twice up front.
type Premigrater interface {
	Premigrate(rel string) error
}

// Config tunes a pipeline.
type Config struct {
	Workers int // parallel store+register workers; default 4
	// BatchSize is how many objects a worker hands to StoreBatch at
	// once: one shard-lock round per touched shard and, on a durable
	// store, one group commit per batch. Default 1.
	BatchSize int
	// Premigrate switches the pipeline from write-through (default:
	// bytes land on the hot tier only) to premigrate-on-ingest: after
	// an object is stored and registered, the pipeline asks the
	// backend serving its path — when it implements Premigrater — to
	// copy it cold. Premigration failures are advisory (the object is
	// already stored, registered and resident; the next watermark
	// scan retries the copy): they are reported to OnError when set
	// and never abort the run or count toward Stats.Errors.
	Premigrate bool
	// OnError, when non-nil, observes per-object failures; the
	// pipeline continues. When nil, the first failure aborts the run.
	OnError func(obj *Object, err error)
}

// Stats summarizes one pipeline run.
type Stats struct {
	Objects  int64
	Bytes    units.Bytes
	Errors   int64
	Duration time.Duration
}

// Throughput returns the mean ingest rate of the run.
func (s Stats) Throughput() units.Rate {
	if s.Duration <= 0 {
		return 0
	}
	return units.Rate(float64(s.Bytes) / s.Duration.Seconds())
}

// Pipeline couples the ADAL layer with the metadata store.
type Pipeline struct {
	layer *adal.Layer
	meta  *metadata.Store
	cfg   Config
}

// New creates a pipeline.
func New(layer *adal.Layer, meta *metadata.Store, cfg Config) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	return &Pipeline{layer: layer, meta: meta, cfg: cfg}
}

// Run drains the producer. It returns the run statistics and the
// first error when no OnError observer is installed.
func (p *Pipeline) Run(ctx context.Context, prod Producer) (Stats, error) {
	start := time.Now()
	var stats Stats
	jobs := make(chan *Object)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	fail := func(obj *Object, err error) {
		atomic.AddInt64(&stats.Errors, 1)
		if p.cfg.OnError != nil {
			p.cfg.OnError(obj, err)
			return
		}
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	for w := 0; w < p.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]*Object, 0, p.cfg.BatchSize)
			flush := func() {
				for i, r := range StoreBatch(p.layer, p.meta, batch) {
					if r.Err != nil {
						fail(batch[i], r.Err)
						continue
					}
					atomic.AddInt64(&stats.Objects, 1)
					atomic.AddInt64((*int64)(&stats.Bytes), int64(r.Dataset.Size))
					p.premigrate(batch[i])
				}
				batch = batch[:0]
			}
			// After cancellation, drain without starting new stores:
			// objects not yet handed to StoreBatch are neither stored nor
			// registered, so the store/metadata invariant holds.
			for obj := range jobs {
				if cctx.Err() != nil {
					continue
				}
				if batch = append(batch, obj); len(batch) >= p.cfg.BatchSize {
					flush()
				}
			}
			if cctx.Err() == nil {
				flush()
			}
		}()
	}

feed:
	for {
		obj, err := prod.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(nil, fmt.Errorf("ingest: producer: %w", err))
			break
		}
		select {
		case jobs <- obj:
		case <-cctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	stats.Duration = time.Since(start)
	if firstErr != nil {
		return stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	return stats, nil
}

// StoreBatch writes a group of objects and registers the stored ones
// in one metadata.CreateBatch — tags folded into the creation, one
// shard-lock round per touched shard and, on a durable store, one WAL
// commit. Results are per-item and aligned with the input; a failed
// item's stored bytes are removed, so the facility never holds
// invisible data. The rollback can never delete another dataset's
// bytes: Layer.Create fails with ErrExists on an occupied path, so a
// write that succeeded — the only case that reaches the rollback — was
// to a previously empty path this call owns.
//
// The objects are written one after the other, in input order, so of
// objects that repeat a path the first wins. A federated home copy's
// Valid note is staged, not waited for: the CreateBatch makes it
// durable with the registration (metadata.Store.StageReplica).
func StoreBatch(layer *adal.Layer, meta *metadata.Store, objs []*Object) []metadata.CreateResult {
	results := make([]metadata.CreateResult, len(objs))
	specs := make([]metadata.CreateSpec, 0, len(objs))
	stored := make([]int, 0, len(objs)) // specs[j] describes objs[stored[j]]
	for i, obj := range objs {
		if obj.Data == nil {
			results[i].Err = errors.New("ingest: object without data")
			continue
		}
		n, sum, err := layer.WriteChecksummed(obj.Path, obj.Data)
		if err != nil {
			results[i].Err = fmt.Errorf("ingest: store %s: %w", obj.Path, err)
			continue
		}
		specs = append(specs, metadata.CreateSpec{Project: obj.Project, Path: obj.Path, Size: n,
			Checksum: sum, Basic: obj.Basic, Tags: obj.Tags})
		stored = append(stored, i)
	}
	for j, r := range meta.CreateBatch(specs) {
		i := stored[j]
		if r.Err != nil {
			_ = layer.Remove(objs[i].Path)
			r.Err = fmt.Errorf("ingest: register %s: %w", objs[i].Path, r.Err)
		}
		results[i] = r
	}
	return results
}

// premigrate asks the backend serving a stored-and-registered
// object's path to copy it to its cold tier (Config.Premigrate).
// Failures are advisory — see the Config field comment.
func (p *Pipeline) premigrate(obj *Object) {
	if !p.cfg.Premigrate {
		return
	}
	b, rel, err := p.layer.Resolve(obj.Path)
	if err != nil {
		return
	}
	pm, ok := b.(Premigrater)
	if !ok {
		return
	}
	if err := pm.Premigrate(rel); err != nil && p.cfg.OnError != nil {
		p.cfg.OnError(obj, fmt.Errorf("ingest: premigrate %s: %w", obj.Path, err))
	}
}
