// Package facility assembles the LSDF (slide 10's architecture
// figure): the federated storage namespace (ADAL), the project
// metadata DB, the rule engine that runs its policies and workflow
// triggers, and the Hadoop analysis cluster — plus discrete-event
// scenario models for the facility-scale numbers (petabytes, tape,
// 10 GE) that cannot run for real on a laptop.
//
// The metadata DB is one store (journaled to one log under
// Options.WALDir when set) that delivers each mutation's events on the
// mutating goroutine once the journal has acknowledged it, which keeps
// rules (workflow triggers among them) deterministic.
// Options.AsyncWorkflows hands rule firings to the engine's executor
// instead; after bulk operations call Meta.Flush to wait for rule
// quiescence. Close flushes and stops delivery before detaching the
// rule engine, so no event is lost on shutdown.
package facility

import (
	"fmt"
	"time"

	"repro/internal/adal"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/mrpc"
	"repro/internal/obs"
	"repro/internal/readcache"
	"repro/internal/replication"
	"repro/internal/rules"
	"repro/internal/tiering"
	"repro/internal/units"
)

// Options configures a real (executable) facility instance. Zero
// values scale the paper's layout down to laptop size.
type Options struct {
	// DFSNodes is the analysis cluster size (paper: 60).
	DFSNodes int
	// DFSBlockSize is the HDFS block size (paper-era default 64 MiB;
	// tests use smaller).
	DFSBlockSize units.Bytes
	// Replication is the HDFS replication factor (default 3).
	Replication int
	// ShuffleMemory is the default per-map-task intermediate buffer
	// for MapReduce jobs run through the facility: tasks exceeding it
	// spill sorted runs to the analysis cluster's DFS and reducers
	// stream-merge them back. 0 keeps jobs fully in memory; a job's
	// own Config.ShuffleMemory overrides it.
	ShuffleMemory units.Bytes
	// ComputeWorkers enables the distributed MapReduce plane when > 0:
	// the facility runs a job master plus that many worker runtimes
	// over the analysis cluster, and named-job submissions
	// (SubmitNamedJob, the gateway's /v1/jobs) execute with scheduling
	// distributed across them over HTTP — heartbeat leases, speculative
	// straggler backups, weighted multi-tenant fair-share. 0 (the default)
	// gives each named job a master and workers of its own (mapreduce.Run).
	ComputeWorkers int
	// ComputeSlots is each compute worker's concurrent task capacity
	// (default 2, the Hadoop-era TaskTracker default).
	ComputeSlots int
	// ComputeAddr is the compute master's control-plane listen address
	// ("" = loopback ephemeral). Set it to a routable address to let
	// out-of-process lsdf-worker runtimes join the facility's fleet.
	ComputeAddr string
	// AsyncWorkflows > 0 runs rule firings — triggered workflows
	// among them — on up to that many background goroutines of the
	// rule engine; Meta.Flush waits for them.
	AsyncWorkflows int
	// MetadataShards overrides the metadata store's count of
	// in-memory lock stripes (default 16; rounded up to a power of
	// two). The WAL does not depend on it.
	MetadataShards int
	// WALDir enables durable metadata when non-empty: every mutation
	// is journaled to the store's write-ahead log under this
	// directory before it is acknowledged, compacted snapshots are
	// taken as the logs grow, and reopening a facility on the same
	// directory recovers the full metadata state — datasets, tags,
	// processing history, placement and replica notes — after a crash
	// or kill -9 (experiment E15). Empty (the default) keeps the
	// store purely in-memory, as before.
	WALDir string
	// SnapshotEvery is the least WAL record count between compacted
	// snapshots of the store when WALDir is set (default 512).
	SnapshotEvery int
	// GroupCommitInterval is the WAL group-commit window: a commit
	// leader waits this long for concurrent mutations to pile into
	// the batch before paying one shared fsync. 0 commits eagerly
	// (every waiter still shares the in-flight sync).
	GroupCommitInterval time.Duration

	// TierHotCapacity enables the live tiered data path when > 0:
	// the /ddn mount becomes a tiering.TierBackend federating the DDN
	// MemFS (hot) with an in-memory cold store (also mounted at /tape
	// for inspection). Writes past the high watermark trigger
	// background migration to tape; opening a migrated path recalls
	// it transparently. 0 (the default) keeps /ddn a plain MemFS. The
	// tier's stores live in memory, so New refuses it with WALDir,
	// whose journal would outlive their bytes.
	TierHotCapacity units.Bytes
	// TierPolicy sets the tier's watermarks/age policy. The zero
	// value takes tiering.DefaultPolicy with MinAge and ScanInterval
	// cleared — real facilities age in hours, tests in milliseconds,
	// so the facility default migrates on demand (write-triggered
	// scans) with no age floor.
	TierPolicy tiering.Policy
	// TierMigrationWorkers sizes the tier's migration pool (default 2).
	TierMigrationWorkers int

	// Sites enables the multi-site replication subsystem when
	// non-empty: each name becomes a federation site (an in-memory
	// backend; order = distance, nearest first), served together at
	// /sites through a replication.FederatedBackend. Reads resolve to
	// the nearest valid replica and fail over transparently; writes
	// land on the nearest site and fan out asynchronously to
	// MinReplicas, driven by the metadata event bus.
	Sites []string
	// MinReplicas is the replication target per object (default 2,
	// capped at len(Sites)).
	MinReplicas int

	// ReadCacheMemory enables the hot-set read cache in front of the
	// /sites federation when > 0: a byte-budgeted in-memory tier with
	// segmented eviction, singleflight checksum-verified fills, and
	// invalidation from the replica events on the bus. Requires Sites.
	ReadCacheMemory units.Bytes
	// ReadCacheDisk adds the cache's local-disk tier when > 0, backed
	// by ReadCacheDir (a LocalFS directory that must exist) or, when
	// ReadCacheDir is empty, an in-memory stand-in — useful in tests
	// and scenarios that want two-tier behavior without touching disk.
	ReadCacheDisk units.Bytes
	// ReadCacheDir is the disk tier's directory; entries found there
	// at startup are re-admitted (a restarted facility keeps its
	// warmed set).
	ReadCacheDir string
}

// The analysis cluster's fixed shape: datanodes alternate between two
// racks and hold up to 4 GiB each.
const (
	dfsRacks        = 2
	dfsNodeCapacity = 4 * units.GiB
)

func (o Options) withDefaults() Options {
	if o.DFSNodes <= 0 {
		o.DFSNodes = 8
	}
	if o.DFSBlockSize <= 0 {
		o.DFSBlockSize = 4 * units.MiB
	}
	if o.Replication <= 0 {
		o.Replication = 3
	}
	return o
}

// Facility is the executable LSDF: every service of the paper's
// architecture, wired and running in-process.
type Facility struct {
	Layer *adal.Layer
	Meta  *metadata.Store
	Rules *rules.Engine // policies and workflow triggers (rules.RunWorkflow)
	DFS   *dfs.Cluster

	// Mounts, for reference: /ddn and /ibm are the disk systems,
	// /archive the tape-backed store, /hdfs the analysis cluster,
	// /s3 the slide-14 object store. With tiering enabled
	// /ddn resolves to Tier (DDN remains its hot store) and /tape to
	// the cold tape store. With Options.Sites set, /sites is the
	// multi-site replication federation.
	DDN, IBM, Archive *adal.FSBackend

	// Tier is the live tiered data path over DDN + Tape; nil unless
	// Options.TierHotCapacity was set.
	Tier *tiering.TierBackend
	// Tape is the tier's cold backend; nil unless tiering is enabled.
	Tape *adal.FSBackend

	// Multi-site replication (mounted at /sites); all nil unless
	// Options.Sites was set. The replica catalogue is Meta's, keyed by
	// federated path ("/sites/...").
	Replicator *replication.Engine
	Federation *replication.FederatedBackend
	FedSites   []*replication.Site

	// ReadCache fronts the federation at /sites; nil unless
	// Options.ReadCacheMemory or ReadCacheDisk was set.
	ReadCache *readcache.Cache

	// Compute is the distributed MapReduce master; nil unless
	// Options.ComputeWorkers was set. Its workers run in-process,
	// bound to the analysis cluster's datanodes.
	Compute        *mapreduce.Master
	computeWorkers []*mapreduce.Worker

	// Obs is the facility-wide metrics registry: every subsystem's
	// counters (DFS, metadata WAL, read cache, replication, compute,
	// Go runtime) exposed through one Prometheus scrape. The gateway
	// instruments into and serves this same registry at /metrics.
	Obs *obs.Registry
	// Tracer is the facility-wide request-trace ring. The gateway
	// mints into it; the compute master attaches job and attempt
	// spans to the same IDs.
	Tracer *obs.Tracer

	templates     mapreduce.Registry
	shuffleMemory units.Bytes // default MapReduce spill budget (Options.ShuffleMemory)
}

// New assembles a facility.
func New(opts Options) (*Facility, error) {
	opts = opts.withDefaults()
	if opts.WALDir != "" && opts.TierHotCapacity > 0 {
		// The journal would recover the tier's placement rows over
		// empty in-memory stores: listed objects that cannot be read.
		return nil, fmt.Errorf("facility: WALDir and TierHotCapacity cannot be combined: the tier's stores are in memory")
	}
	reg := obs.New()
	tracer := obs.NewTracer(512)

	cluster := dfs.NewCluster(dfs.Config{
		BlockSize:   opts.DFSBlockSize,
		Replication: opts.Replication,
		Seed:        1,
	})
	for i := 0; i < opts.DFSNodes; i++ {
		rack := fmt.Sprintf("rack%d", i%dfsRacks)
		if _, err := cluster.AddDataNode(fmt.Sprintf("dn%03d", i), rack, dfsNodeCapacity); err != nil {
			return nil, err
		}
	}

	layer := adal.NewLayer()
	ddn := adal.NewMemFS("ddn")
	ibm := adal.NewMemFS("ibm")
	arc := adal.NewMemFS("archive")
	meta, err := metadata.Open(metadata.Options{
		Shards:              opts.MetadataShards,
		WALDir:              opts.WALDir,
		SnapshotEvery:       opts.SnapshotEvery,
		GroupCommitInterval: opts.GroupCommitInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("facility: metadata recovery: %w", err)
	}

	// The /ddn mount: plain MemFS, or — with tiering on — a
	// TierBackend whose hot store is that same MemFS and whose cold
	// store is another.
	var ddnMount adal.Backend = ddn
	var tier *tiering.TierBackend
	var tapeFS *adal.FSBackend
	if opts.TierHotCapacity > 0 {
		pol := opts.TierPolicy
		if pol == (tiering.Policy{}) {
			pol = tiering.DefaultPolicy()
			pol.MinAge = 0
			pol.ScanInterval = 0
		}
		tapeFS = adal.NewMemFS("tape")
		tier, err = tiering.New("ddn-tier", ddn, tapeFS, tiering.Config{
			Policy:           pol,
			HotCapacity:      opts.TierHotCapacity,
			MigrationWorkers: opts.TierMigrationWorkers,
			Meta:             meta,
			MountPrefix:      "/ddn",
		})
		if err != nil {
			return nil, err
		}
		ddnMount = tier
	}

	// The replication federation: one site per Options.Sites name,
	// nearest first, behind a federated backend at /sites.
	var repEngine *replication.Engine
	var fedBackend *replication.FederatedBackend
	var fedSites []*replication.Site
	if len(opts.Sites) > 0 {
		for i, name := range opts.Sites {
			fedSites = append(fedSites, replication.NewSite(name, adal.NewMemFS(name), i))
		}
		repEngine, err = replication.NewEngine(replication.Config{
			Sites:       fedSites,
			MinReplicas: opts.MinReplicas,
			Meta:        meta,
			MountPrefix: "/sites",
		})
		if err != nil {
			return nil, err
		}
		fedBackend = replication.NewFederated("sites", repEngine)
	}

	// The read cache wraps the federation: the /sites mount resolves
	// through it, so every federated read is hot-set cached.
	var sitesMount adal.Backend = fedBackend
	var cache *readcache.Cache
	if fedBackend != nil && (opts.ReadCacheMemory > 0 || opts.ReadCacheDisk > 0) {
		var diskTier adal.Backend
		if opts.ReadCacheDisk > 0 {
			if opts.ReadCacheDir != "" {
				diskTier, err = adal.NewLocalFS("readcache", opts.ReadCacheDir)
				if err != nil {
					return nil, fmt.Errorf("facility: read cache dir: %w", err)
				}
			} else {
				diskTier = adal.NewMemFS("readcache")
			}
		}
		cache = readcache.New(fedBackend, readcache.Config{
			Memory:      opts.ReadCacheMemory,
			Disk:        diskTier,
			DiskBudget:  opts.ReadCacheDisk,
			Meta:        meta,
			MountPrefix: "/sites",
			Obs:         reg,
		})
		sitesMount = cache
	}

	mounts := map[string]adal.Backend{
		"/ddn":     ddnMount,
		"/ibm":     ibm,
		"/archive": arc,
		"/hdfs":    adal.NewDFSBackend("hdfs", cluster, "dn000"),
		"/s3":      adal.NewMemFS("s3"),
	}
	if tapeFS != nil {
		mounts["/tape"] = tapeFS
	}
	if fedBackend != nil {
		mounts["/sites"] = sitesMount
	}
	for prefix, b := range mounts {
		if err := layer.Mount(prefix, b); err != nil {
			return nil, err
		}
	}

	f := &Facility{
		Layer:         layer,
		Meta:          meta,
		DFS:           cluster,
		DDN:           ddn,
		IBM:           ibm,
		Archive:       arc,
		Tier:          tier,
		Tape:          tapeFS,
		Replicator:    repEngine,
		Federation:    fedBackend,
		FedSites:      fedSites,
		ReadCache:     cache,
		Obs:           reg,
		Tracer:        tracer,
		shuffleMemory: opts.ShuffleMemory,
	}
	f.Rules = rules.NewEngine(layer, meta, opts.AsyncWorkflows)

	f.templates = mapreduce.Builtin()
	if opts.ComputeWorkers > 0 {
		master, err := mapreduce.NewMaster(mapreduce.MasterConfig{
			Cluster:       cluster,
			Registry:      f.templates,
			Addr:          opts.ComputeAddr,
			ShuffleMemory: opts.ShuffleMemory,
			Tracer:        tracer,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Compute = master
		nodes := cluster.DataNodes()
		for i := 0; i < opts.ComputeWorkers; i++ {
			w, err := mapreduce.StartWorker(mapreduce.WorkerConfig{
				ID:       fmt.Sprintf("cw%02d", i),
				Master:   master.URL(),
				Store:    mapreduce.NewDFSStore(cluster),
				Node:     nodes[i%len(nodes)],
				Slots:    opts.ComputeSlots,
				Registry: f.templates,
			})
			if err != nil {
				f.Close()
				return nil, err
			}
			f.computeWorkers = append(f.computeWorkers, w)
		}
	}
	f.registerObs()
	return f, nil
}

// Close stops the tier's migration machinery (its last placement
// events still reach the rules), drains every rule firing the engine's
// executor holds, then detaches the rule engine, in that order, so
// every event published before Close still reaches its rules.
func (f *Facility) Close() {
	for _, w := range f.computeWorkers {
		w.Close()
	}
	if f.Compute != nil {
		f.Compute.Close()
	}
	if f.ReadCache != nil {
		f.ReadCache.Close()
	}
	if f.Tier != nil {
		f.Tier.Close()
	}
	if f.Replicator != nil {
		f.Replicator.Close()
	}
	if f.Meta != nil {
		f.Meta.Close()
	}
	if f.Rules != nil {
		f.Rules.Close()
	}
}

// RunJob executes a MapReduce job on the facility's analysis cluster.
// Jobs whose ShuffleMemory is zero inherit the facility's default
// spill budget (Options.ShuffleMemory); a negative ShuffleMemory
// opts the job out, forcing the pure in-memory shuffle.
func (f *Facility) RunJob(cfg mapreduce.Config) (*mapreduce.Result, error) {
	if cfg.ShuffleMemory == 0 {
		cfg.ShuffleMemory = f.shuffleMemory
	}
	return mapreduce.Run(f.DFS, cfg)
}

// SubmitNamedJob admits a registered job template for execution and
// returns a wait function for its result. With a compute plane
// (Options.ComputeWorkers) the job goes to its master, whose workers
// are reached over HTTP; otherwise it resolves against the same
// registry and RunJob gives it a master and workers of its own, inside
// the call — the same scheduler and byte-identical output either way.
// Submission errors (unknown template, missing inputs) surface
// synchronously.
func (f *Facility) SubmitNamedJob(spec mrpc.JobSpec, tenant string) (func() (*mapreduce.Result, error), error) {
	if f.Compute != nil {
		if spec.ShuffleMemory == 0 {
			spec.ShuffleMemory = int64(f.shuffleMemory)
		}
		j, err := f.Compute.Submit(spec, tenant)
		if err != nil {
			return nil, err
		}
		return j.Wait, nil
	}
	cfg, err := f.templates.Resolve(spec)
	if err != nil {
		return nil, err
	}
	return func() (*mapreduce.Result, error) { return f.RunJob(cfg) }, nil
}

// HasJobTemplate reports whether the facility's job registry knows a
// template name.
func (f *Facility) HasJobTemplate(name string) bool {
	_, ok := f.templates[name]
	return ok
}

// RunNamedJob is SubmitNamedJob run to completion.
func (f *Facility) RunNamedJob(spec mrpc.JobSpec, tenant string) (*mapreduce.Result, error) {
	wait, err := f.SubmitNamedJob(spec, tenant)
	if err != nil {
		return nil, err
	}
	return wait()
}
