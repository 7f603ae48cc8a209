// Command lsdfctl is the facility operations CLI: it manages a
// persistent LSDF instance rooted in a state directory (a LocalFS
// backend plus a JSON metadata dump), supporting the operations the
// paper's users perform: ingest files with checksums and metadata,
// browse, query and tag.
//
//	lsdfctl -state /tmp/lsdf ingest -project zebrafish /data/*.raw
//	lsdfctl -state /tmp/lsdf ls /data
//	lsdfctl -state /tmp/lsdf query -project zebrafish -tag raw
//	lsdfctl -state /tmp/lsdf tag /data/img1.raw analyze
//	lsdfctl -state /tmp/lsdf stat /data/img1.raw
//	lsdfctl -state /tmp/lsdf tier
//	lsdfctl -state /tmp/lsdf tier migrate /data/img1.raw
//
// With -server, the same user-facing commands run against a live
// lsdfd gateway instead of a local state directory — the CLI becomes
// a network client authenticated by -token:
//
//	lsdfctl -server http://lsdf.example:7420 -token SECRET ingest -project zebrafish img*.raw
//	lsdfctl -server http://lsdf.example:7420 -token SECRET ls /data
//
// Facility-internal planes (tier, replica, cache, export) stay
// local-only: they administer backend state the gateway deliberately
// does not expose to tenants.
//
// The object namespace is a live tiered data path: objects/ is the
// hot tier, cold/ the cold one. "tier migrate" replaces an object's
// hot bytes with a self-describing stub; any later read (or "tier
// recall") brings them back transparently and checksum-verified.
// Placement survives invocations because the stubs are recovered on
// startup.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/adal"
	"repro/internal/dfs"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/mrpc"
	"repro/internal/obs"
	"repro/internal/readcache"
	"repro/internal/replication"
	"repro/internal/tiering"
	"repro/internal/units"
)

func main() {
	state := flag.String("state", "", "state directory (created if missing)")
	cacheMem := flag.Int("cache-mem-mib", 64, "read cache memory tier budget in MiB (0 disables the cache)")
	cacheDisk := flag.Int("cache-disk-mib", 256, "read cache disk tier budget in MiB (persisted under STATE/cache)")
	server := flag.String("server", "", "lsdfd gateway URL: run commands remotely instead of against -state")
	token := flag.String("token", "", "bearer token for -server")
	trace := flag.Bool("trace", false, "mint a request trace for this command and print its ID (remote mode; inspect with: lsdfctl traces ID)")
	flag.Parse()
	if *server != "" {
		if flag.NArg() == 0 {
			usage()
			os.Exit(2)
		}
		if err := runRemote(*server, *token, *trace, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "lsdfctl:", err)
			os.Exit(1)
		}
		return
	}
	if *state == "" || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	if err := run(*state, *cacheMem, *cacheDisk, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "lsdfctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lsdfctl -state DIR COMMAND [args]
       lsdfctl -server URL -token SECRET COMMAND [args]

With -server, ingest/ls/stat/tag/untag/query run against a live lsdfd
gateway (ingest also takes -dest PREFIX, default /data). The
facility-internal planes (tier, replica, cache, export) are
local-only.

commands:
  ingest -project P FILE...   store files under /data with checksums and register them
  ls PREFIX                   list stored objects joined with metadata
  stat PATH                   show one object's dataset record
  tag PATH TAG                tag a dataset
  untag PATH TAG              remove a tag
  query [-project P] [-tag T] find datasets
  jobs submit -job NAME -out DIR [-reducers N] [-arg K=V] [-wait] INPUT...
                              run a named analysis job (local: synchronous
                              on a transient cluster; remote: async unless -wait)
  jobs status [ID]            show one job, or list all submitted jobs
  jobs wait ID                block until a job finishes and print its result
                              (remote: one long-poll, answered when the job ends)
  export                      dump the metadata DB as JSON to stdout
  tier                        show per-object tier placement and counters
  tier migrate PATH           move an object to the cold tier (stub stays)
  tier recall PATH            bring a migrated object's bytes back
  tier pin PATH               exempt an object from migration (this run)
  tier unpin PATH             re-admit an object to migration
  replica status              show the replica catalog (per-object site states)
  replica add PATH SITE       copy an object to a mirror site (created on demand)
  replica drop PATH SITE      remove an object's replica from a site
  replica verify PATH         re-checksum every replica against the main copy
  cache status                show read-cache counters and cached objects
  cache evict PATH            drop an object from every cache tier
  cache warm PREFIX           pre-fill the cache with the objects under PREFIX
  metrics                     (remote) dump the facility's Prometheus metrics
  traces [-n N] [ID]          (remote) show recent request traces, or one trace's spans`)
}

// runRemote drives the user-facing commands through the gateway
// client against a served lsdfd. The command surface and output
// format match the local mode so scripts work against either.
func runRemote(server, token string, trace bool, args []string) error {
	c, err := client.New(server, token, client.Options{})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if trace {
		// Client-side minting: the gateway adopts this ID, so the
		// user can pull the full span tree afterwards.
		id := obs.NewTraceID()
		ctx = obs.ContextWithTrace(ctx, &obs.TraceData{ID: id})
		defer fmt.Fprintf(os.Stderr, "trace: %s\n", id)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ingest":
		fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
		project := fs.String("project", "default", "project name")
		dest := fs.String("dest", "/data", "namespace prefix to store under")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if fs.NArg() == 0 {
			return fmt.Errorf("ingest: no files given")
		}
		var objs []gateway.IngestObject
		for _, src := range fs.Args() {
			data, err := os.ReadFile(src)
			if err != nil {
				return err
			}
			objs = append(objs, gateway.IngestObject{
				Path:    strings.TrimSuffix(*dest, "/") + "/" + filepath.Base(src),
				Project: *project,
				Data:    data,
				Basic:   map[string]string{"source": src},
				Tags:    []string{"raw"},
			})
		}
		res, err := c.Ingest(ctx, objs)
		if err != nil {
			return err
		}
		for _, r := range res.Results {
			if r.Error != "" {
				return fmt.Errorf("ingest %s: %s", r.Path, r.Error)
			}
			fmt.Printf("%s  %s  %s\n", r.DatasetID, r.Size.SI(), r.Path)
		}
		return nil
	case "ls":
		prefix := "/data"
		if len(rest) > 0 {
			prefix = rest[0]
		}
		infos, err := c.List(ctx, prefix)
		if err != nil {
			return err
		}
		for _, info := range infos {
			mark := "-"
			if info.DatasetID != "" {
				mark = info.DatasetID + " [" + strings.Join(info.Tags, ",") + "]"
			}
			fmt.Printf("%-10s  %-40s  %s\n", info.Size.SI(), info.Path, mark)
		}
		return nil
	case "stat":
		if len(rest) != 1 {
			return fmt.Errorf("stat: need PATH")
		}
		ds, err := c.Dataset(ctx, rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("id:       %s\nproject:  %s\npath:     %s\nsize:     %s\nchecksum: %s\ntags:     %s\n",
			ds.ID, ds.Project, ds.Path, ds.Size.SI(), ds.Checksum, strings.Join(ds.Tags, ","))
		for _, p := range ds.Processings {
			fmt.Printf("processing %s: tool=%s results=%v outputs=%v\n", p.ID, p.Tool, p.Results, p.Outputs)
		}
		return nil
	case "tag", "untag":
		if len(rest) != 2 {
			return fmt.Errorf("%s: need PATH TAG", cmd)
		}
		var err error
		if cmd == "tag" {
			_, err = c.Tag(ctx, rest[0], rest[1])
		} else {
			_, err = c.Untag(ctx, rest[0], rest[1])
		}
		return err
	case "query":
		fs := flag.NewFlagSet("query", flag.ContinueOnError)
		project := fs.String("project", "", "filter by project")
		tag := fs.String("tag", "", "filter by tag (comma-separated = all required)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		q := client.FindQuery{Project: *project}
		if *tag != "" {
			q.Tags = strings.Split(*tag, ",")
		}
		dss, err := c.Find(ctx, q)
		if err != nil {
			return err
		}
		for _, ds := range dss {
			fmt.Printf("%s  %-10s  %-40s  [%s]\n", ds.ID, ds.Size.SI(), ds.Path, strings.Join(ds.Tags, ","))
		}
		return nil
	case "jobs":
		return remoteJobs(ctx, c, rest)
	case "metrics":
		text, err := c.MetricsText(ctx)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	case "traces":
		return remoteTraces(ctx, c, rest)
	case "tier", "replica", "cache", "export":
		return fmt.Errorf("%q administers facility-internal state and is local-only; rerun with -state on the facility host", cmd)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// remoteTraces renders the gateway's debug trace ring: a summary line
// per trace, or — given an ID — one trace's span tree with durations.
func remoteTraces(ctx context.Context, c *client.Client, rest []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	n := fs.Int("n", 10, "how many recent traces to list")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() >= 1 {
		tv, err := c.Trace(ctx, fs.Arg(0))
		if err != nil {
			return err
		}
		printTrace(tv)
		return nil
	}
	views, err := c.Traces(ctx, *n)
	if err != nil {
		return err
	}
	for _, tv := range views {
		var total int64
		for _, sp := range tv.Spans {
			if sp.DurNs > total {
				total = sp.DurNs
			}
		}
		fmt.Printf("%-24s  %-28s  %2d spans  %s\n",
			tv.ID, tv.Root, len(tv.Spans), time.Duration(total))
	}
	return nil
}

func printTrace(tv obs.TraceView) {
	fmt.Printf("trace %s  root=%q  start=%s\n", tv.ID, tv.Root, tv.Start.Format(time.RFC3339Nano))
	for _, sp := range tv.Spans {
		detail := ""
		if sp.Detail != "" {
			detail = "  " + sp.Detail
		}
		fmt.Printf("  %-28s %12s%s\n", sp.Name, time.Duration(sp.DurNs), detail)
	}
	if tv.Dropped > 0 {
		fmt.Printf("  (%d spans dropped)\n", tv.Dropped)
	}
}

// jobSubmitFlags is the shared flag surface of "jobs submit" in both
// modes.
type jobSubmitFlags struct {
	fs       *flag.FlagSet
	job      *string
	out      *string
	reducers *int
	wait     *bool
	args     map[string]string
}

func newJobSubmitFlags() *jobSubmitFlags {
	f := &jobSubmitFlags{args: map[string]string{}}
	f.fs = flag.NewFlagSet("jobs submit", flag.ContinueOnError)
	f.job = f.fs.String("job", "", "job template name (wordcount, linecount, grep, ...)")
	f.out = f.fs.String("out", "", "output directory for reducer part files")
	f.reducers = f.fs.Int("reducers", 0, "reducer count (default: template's)")
	f.wait = f.fs.Bool("wait", false, "block until the job finishes (remote mode: a long-poll on the gateway; local jobs always run to completion)")
	f.fs.Func("arg", "template argument KEY=VALUE (repeatable)", func(s string) error {
		k, v, ok := strings.Cut(s, "=")
		if !ok || k == "" {
			return fmt.Errorf("want KEY=VALUE, got %q", s)
		}
		f.args[k] = v
		return nil
	})
	return f
}

func (f *jobSubmitFlags) parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if *f.job == "" || *f.out == "" || f.fs.NArg() == 0 {
		return fmt.Errorf("jobs submit: need -job NAME -out DIR INPUT...")
	}
	return nil
}

func printJobStatus(st gateway.JobStatus) {
	fmt.Printf("%s  %s  %s", st.ID, st.Job, st.State)
	if st.DurationMS > 0 {
		fmt.Printf("  %dms", st.DurationMS)
	}
	if st.Error != "" {
		fmt.Printf("  error: %s", st.Error)
	}
	fmt.Println()
	if st.State == gateway.JobDone {
		c := st.Counters
		fmt.Printf("  tasks: %d map (%d local) + %d reduce, retries %d, speculative %d launched / %d won\n",
			c.MapTasks, c.LocalTasks, c.ReduceTasks, c.Retries, c.SpecLaunched, c.SpecWon)
		fmt.Printf("  records: %d in, %d out; shuffle %s (%s remote), %d spill runs\n",
			c.InputRecords, c.OutputRecords, units.Bytes(c.ShuffleBytes).SI(),
			units.Bytes(c.RemoteShuffleBytes).SI(), c.SpillRuns)
		for _, f := range st.OutputFiles {
			fmt.Printf("  %s\n", f)
		}
	}
}

func remoteJobs(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("jobs: need submit|status|wait")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		f := newJobSubmitFlags()
		if err := f.parse(rest); err != nil {
			return err
		}
		st, err := c.SubmitJob(ctx, gateway.JobRequest{
			Job:         *f.job,
			Inputs:      f.fs.Args(),
			OutputDir:   *f.out,
			NumReducers: *f.reducers,
			Args:        f.args,
		})
		if err != nil {
			return err
		}
		if *f.wait {
			if st, err = c.WaitJob(ctx, st.ID, 50*time.Millisecond); err != nil {
				return err
			}
		}
		printJobStatus(st)
		if st.State == gateway.JobFailed {
			return fmt.Errorf("job %s failed", st.ID)
		}
		return nil
	case "status":
		if len(rest) == 1 {
			st, err := c.Job(ctx, rest[0])
			if err != nil {
				return err
			}
			printJobStatus(st)
			return nil
		}
		sts, err := c.Jobs(ctx)
		if err != nil {
			return err
		}
		for _, st := range sts {
			printJobStatus(st)
		}
		return nil
	case "wait":
		if len(rest) != 1 {
			return fmt.Errorf("jobs wait: need JOB-ID")
		}
		st, err := c.WaitJob(ctx, rest[0], 50*time.Millisecond)
		if err != nil {
			return err
		}
		printJobStatus(st)
		if st.State == gateway.JobFailed {
			return fmt.Errorf("job %s failed", st.ID)
		}
		return nil
	default:
		return fmt.Errorf("jobs: unknown subcommand %q", sub)
	}
}

type ctl struct {
	layer *adal.Layer
	meta  *metadata.Store
	tier  *tiering.TierBackend
	cache *readcache.Cache // nil when -cache-mem-mib and -cache-disk-mib are both 0
	path  string           // metadata dump location
	state string
	// Replica mirrors: each site is a LocalFS under sites/<name>,
	// mounted at /site/<name>; the catalog is rebuilt from the site
	// directories on every invocation, so replica placement — like
	// tier placement — persists with no side database.
	repCat *replication.Catalog
	sites  map[string]*adal.LocalFS
}

func open(state string, cacheMemMiB, cacheDiskMiB int) (*ctl, error) {
	for _, dir := range []string{"objects", "cold", "cache"} {
		if err := os.MkdirAll(filepath.Join(state, dir), 0o755); err != nil {
			return nil, err
		}
	}
	hot, err := adal.NewLocalFS("posix", filepath.Join(state, "objects"))
	if err != nil {
		return nil, err
	}
	cold, err := adal.NewLocalFS("cold", filepath.Join(state, "cold"))
	if err != nil {
		return nil, err
	}
	// No hot capacity: the CLI migrates on demand, not by watermark.
	// Recovery rebuilds placement from the stubs in objects/.
	tier, err := tiering.New("tier", hot, cold, tiering.Config{})
	if err != nil {
		return nil, err
	}
	// Read cache in front of the tier: hits skip the tier entirely
	// (no recall, no cold read). The disk tier lives under cache/, so
	// objects warmed in one invocation are still cached in the next.
	var root adal.Backend = tier
	var cache *readcache.Cache
	if cacheMemMiB > 0 || cacheDiskMiB > 0 {
		var cacheDisk adal.Backend
		if cacheDiskMiB > 0 {
			cacheDisk, err = adal.NewLocalFS("readcache", filepath.Join(state, "cache"))
			if err != nil {
				return nil, err
			}
		}
		cache = readcache.New(tier, readcache.Config{
			Memory:     units.Bytes(cacheMemMiB) * units.MiB,
			Disk:       cacheDisk,
			DiskBudget: units.Bytes(cacheDiskMiB) * units.MiB,
		})
		root = cache
	}
	layer := adal.NewLayer()
	if err := layer.Mount("/", root); err != nil {
		return nil, err
	}
	meta := metadata.NewStore()
	dump := filepath.Join(state, "metadata.json")
	if f, err := os.Open(dump); err == nil {
		defer f.Close()
		if err := meta.Import(f); err != nil {
			return nil, fmt.Errorf("loading %s: %w", dump, err)
		}
	}
	c := &ctl{
		layer: layer, meta: meta, tier: tier, cache: cache, path: dump, state: state,
		repCat: replication.NewCatalog(replication.CatalogConfig{}),
		sites:  make(map[string]*adal.LocalFS),
	}
	// Recover replica placement from the mirror directories.
	siteDirs, _ := os.ReadDir(filepath.Join(state, "sites"))
	for _, d := range siteDirs {
		if !d.IsDir() {
			continue
		}
		if err := c.mountSite(d.Name()); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// mountSite attaches (creating if needed) the mirror site and loads
// its objects into the replica catalog as valid replicas; verify
// re-checksums them on demand.
func (c *ctl) mountSite(name string) error {
	// The name becomes both a directory under sites/ and a mount
	// prefix; reject anything that could escape either namespace.
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || filepath.Base(name) != name {
		return fmt.Errorf("invalid site name %q", name)
	}
	if _, ok := c.sites[name]; ok {
		return nil
	}
	dir := filepath.Join(c.state, "sites", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := adal.NewLocalFS("site-"+name, dir)
	if err != nil {
		return err
	}
	if err := c.layer.Mount("/site/"+name, b); err != nil {
		return err
	}
	c.sites[name] = b
	infos, err := b.List("/")
	if err != nil {
		return err
	}
	for _, info := range infos {
		if info.IsDir {
			continue
		}
		c.repCat.Set(info.Path, replication.Replica{
			Site: name, State: replication.Valid, Size: info.Size,
		})
	}
	return nil
}

func (c *ctl) save() error {
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.meta.Export(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

func run(state string, cacheMemMiB, cacheDiskMiB int, args []string) error {
	c, err := open(state, cacheMemMiB, cacheDiskMiB)
	if err != nil {
		return err
	}
	defer c.tier.Close()
	if c.cache != nil {
		defer c.cache.Close()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "tier":
		return c.tierCmd(rest)
	case "replica":
		return c.replicaCmd(rest)
	case "cache":
		return c.cacheCmd(rest)
	case "ingest":
		return c.ingest(rest)
	case "ls":
		return c.ls(rest)
	case "stat":
		return c.stat(rest)
	case "tag", "untag":
		return c.tag(cmd, rest)
	case "query":
		return c.query(rest)
	case "jobs":
		return c.jobsCmd(rest)
	case "export":
		return c.meta.Export(os.Stdout)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func (c *ctl) ingest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	project := fs.String("project", "default", "project name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("ingest: no files given")
	}
	for _, src := range fs.Args() {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		dst := "/data/" + filepath.Base(src)
		r := ingest.StoreBatch(c.layer, c.meta, []*ingest.Object{{
			Project: *project,
			Path:    dst,
			Data:    f,
			Basic:   map[string]string{"source": src},
			Tags:    []string{"raw"},
		}})[0]
		f.Close()
		if r.Err != nil {
			return fmt.Errorf("%s: %w", src, r.Err)
		}
		fmt.Printf("%s  %s  %s\n", r.Dataset.ID, r.Dataset.Size.SI(), dst)
	}
	return c.save()
}

func (c *ctl) ls(args []string) error {
	prefix := "/data"
	if len(args) > 0 {
		prefix = args[0]
	}
	infos, err := c.layer.List(prefix)
	if err != nil {
		return err
	}
	for _, info := range infos {
		mark := "-"
		if ds, ok := c.meta.ByPath(info.Path); ok {
			mark = ds.ID + " [" + strings.Join(ds.Tags, ",") + "]"
		}
		fmt.Printf("%-10s  %-40s  %s\n", info.Size.SI(), info.Path, mark)
	}
	return nil
}

func (c *ctl) stat(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("stat: need PATH")
	}
	ds, ok := c.meta.ByPath(args[0])
	if !ok {
		return fmt.Errorf("no dataset at %q", args[0])
	}
	fmt.Printf("id:       %s\nproject:  %s\npath:     %s\nsize:     %s\nchecksum: %s\ntags:     %s\n",
		ds.ID, ds.Project, ds.Path, ds.Size.SI(), ds.Checksum, strings.Join(ds.Tags, ","))
	for _, p := range ds.Processings {
		fmt.Printf("processing %s: tool=%s results=%v outputs=%v\n", p.ID, p.Tool, p.Results, p.Outputs)
	}
	return nil
}

func (c *ctl) tag(cmd string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("%s: need PATH TAG", cmd)
	}
	ds, ok := c.meta.ByPath(args[0])
	if !ok {
		return fmt.Errorf("no dataset at %q", args[0])
	}
	var err error
	if cmd == "tag" {
		err = c.meta.Tag(ds.ID, args[1])
	} else {
		err = c.meta.Untag(ds.ID, args[1])
	}
	if err != nil {
		return err
	}
	return c.save()
}

func (c *ctl) query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	project := fs.String("project", "", "filter by project")
	tag := fs.String("tag", "", "filter by tag (comma-separated = all required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := metadata.Query{Project: *project}
	if *tag != "" {
		q.Tags = strings.Split(*tag, ",")
	}
	for _, ds := range c.meta.Find(q) {
		fmt.Printf("%s  %-10s  %-40s  [%s]\n", ds.ID, ds.Size.SI(), ds.Path, strings.Join(ds.Tags, ","))
	}
	return nil
}

// Local job history: every "jobs submit" appends its (final) record
// to STATE/jobs.json, so status/wait work across invocations exactly
// like their remote counterparts — except local jobs are synchronous,
// so wait never blocks.
func (c *ctl) jobsPath() string { return filepath.Join(c.state, "jobs.json") }

func (c *ctl) loadJobs() ([]gateway.JobStatus, error) {
	data, err := os.ReadFile(c.jobsPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var jobs []gateway.JobStatus
	if err := json.Unmarshal(data, &jobs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", c.jobsPath(), err)
	}
	return jobs, nil
}

func (c *ctl) appendJob(st gateway.JobStatus) error {
	jobs, err := c.loadJobs()
	if err != nil {
		return err
	}
	jobs = append(jobs, st)
	data, err := json.MarshalIndent(jobs, "", "  ")
	if err != nil {
		return err
	}
	tmp := c.jobsPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.jobsPath())
}

func (c *ctl) jobsCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("jobs: need submit|status|wait")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "submit":
		f := newJobSubmitFlags()
		if err := f.parse(rest); err != nil {
			return err
		}
		return c.submitLocalJob(f)
	case "status", "wait":
		jobs, err := c.loadJobs()
		if err != nil {
			return err
		}
		if sub == "wait" && len(rest) != 1 {
			return fmt.Errorf("jobs wait: need JOB-ID")
		}
		if len(rest) == 1 {
			for _, st := range jobs {
				if st.ID == rest[0] {
					printJobStatus(st)
					if st.State == gateway.JobFailed {
						return fmt.Errorf("job %s failed", st.ID)
					}
					return nil
				}
			}
			return fmt.Errorf("no job %s", rest[0])
		}
		for _, st := range jobs {
			printJobStatus(st)
		}
		return nil
	default:
		return fmt.Errorf("jobs: unknown subcommand %q", sub)
	}
}

// submitLocalJob runs a named analysis synchronously: it stages the
// inputs from the state namespace onto a transient single-process
// analysis cluster, resolves the template from the builtin registry
// (the same one lsdfd serves), runs the job, and copies the part
// files back under -out so ls/stat see them like any stored object.
func (c *ctl) submitLocalJob(f *jobSubmitFlags) error {
	cluster := dfs.NewCluster(dfs.Config{
		BlockSize:   4 * units.MiB,
		Replication: 1,
		Seed:        1,
	})
	for i := 0; i < 3; i++ {
		if _, err := cluster.AddDataNode(fmt.Sprintf("dn%d", i), "rack0", 4*units.GiB); err != nil {
			return err
		}
	}
	inputs := f.fs.Args()
	for _, in := range inputs {
		r, err := c.layer.Open(in)
		if err != nil {
			return fmt.Errorf("staging %s: %w", in, err)
		}
		w, err := cluster.Create(in, "")
		if err != nil {
			r.Close()
			return err
		}
		_, err = io.Copy(w, r)
		r.Close()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("staging %s: %w", in, err)
		}
	}
	cfg, err := mapreduce.Builtin().Resolve(mrpc.JobSpec{
		Name:        *f.job,
		Inputs:      inputs,
		OutputDir:   *f.out,
		NumReducers: *f.reducers,
		Args:        f.args,
	})
	if err != nil {
		return err
	}

	jobs, err := c.loadJobs()
	if err != nil {
		return err
	}
	st := gateway.JobStatus{
		ID:     fmt.Sprintf("j-%06d", len(jobs)+1),
		Job:    *f.job,
		Tenant: "local",
	}
	res, runErr := mapreduce.Run(cluster, cfg)
	if runErr != nil {
		st.State = gateway.JobFailed
		st.Error = runErr.Error()
	} else {
		st.State = gateway.JobDone
		st.DurationMS = res.Duration.Milliseconds()
		st.Counters = res.Counters
		st.OutputFiles = res.OutputFiles
		for _, of := range res.OutputFiles {
			r, err := cluster.Open(of, "")
			if err != nil {
				return err
			}
			_, _, err = c.layer.WriteChecksummed(of, r)
			r.Close()
			if err != nil {
				return fmt.Errorf("storing %s: %w", of, err)
			}
		}
	}
	if err := c.appendJob(st); err != nil {
		return err
	}
	printJobStatus(st)
	if runErr != nil {
		return fmt.Errorf("job %s failed", st.ID)
	}
	return nil
}

func (c *ctl) replicaCmd(args []string) error {
	if len(args) == 0 || args[0] == "status" {
		siteNames := make([]string, 0, len(c.sites))
		for name := range c.sites {
			siteNames = append(siteNames, name)
		}
		sort.Strings(siteNames)
		fmt.Printf("sites: %s\n", strings.Join(siteNames, ", "))
		counts := c.repCat.Counts()
		fmt.Printf("replicas: %d valid, %d stale, %d lost\n",
			counts[replication.Valid], counts[replication.Stale], counts[replication.Lost])
		for _, path := range c.repCat.Paths() {
			var cols []string
			for _, r := range c.repCat.Replicas(path) {
				cols = append(cols, fmt.Sprintf("%s=%s", r.Site, r.State))
			}
			fmt.Printf("%-40s  %s\n", path, strings.Join(cols, "  "))
		}
		return nil
	}
	sub := args[0]
	switch sub {
	case "add", "drop":
		if len(args) != 3 {
			return fmt.Errorf("replica %s: need PATH SITE", sub)
		}
		path, site := args[1], args[2]
		if sub == "add" {
			if err := c.mountSite(site); err != nil {
				return err
			}
			// Adding over an existing (possibly stale) replica
			// refreshes it: clear the old copy so Create succeeds.
			if _, ok := c.repCat.Get(path, site); ok {
				_ = c.layer.Remove("/site/" + site + path)
			}
			n, sum, err := c.layer.CopyObjectChecksummed(path, "/site/"+site+path)
			if err != nil {
				return err
			}
			c.repCat.Set(path, replication.Replica{
				Site: site, State: replication.Valid, Size: n, Checksum: sum,
			})
			fmt.Printf("replicated %s to site %s (%s, sha256 %.12s…)\n", path, site, n.SI(), sum)
			return nil
		}
		if _, ok := c.repCat.Get(path, site); !ok {
			return fmt.Errorf("no replica of %s on site %s", path, site)
		}
		if err := c.layer.Remove("/site/" + site + path); err != nil {
			return err
		}
		c.repCat.Drop(path, site)
		fmt.Printf("dropped replica of %s from site %s\n", path, site)
		return nil
	case "verify":
		if len(args) != 2 {
			return fmt.Errorf("replica verify: need PATH")
		}
		path := args[1]
		want, err := c.layer.Checksum(path)
		if err != nil {
			return fmt.Errorf("reading main copy: %w", err)
		}
		reps := c.repCat.Replicas(path)
		if len(reps) == 0 {
			return fmt.Errorf("no replicas of %s", path)
		}
		for _, r := range reps {
			got, err := c.layer.Checksum("/site/" + r.Site + path)
			switch {
			case err != nil:
				c.repCat.Mark(path, r.Site, replication.Lost, err.Error())
				fmt.Printf("%-12s  %s  LOST (%v)\n", r.Site, path, err)
			case got != want:
				c.repCat.Mark(path, r.Site, replication.Stale, "checksum mismatch")
				fmt.Printf("%-12s  %s  STALE (checksum mismatch)\n", r.Site, path)
			default:
				c.repCat.Mark(path, r.Site, replication.Valid, "")
				fmt.Printf("%-12s  %s  valid (sha256 %.12s…)\n", r.Site, path, got)
			}
		}
		return nil
	default:
		return fmt.Errorf("replica: unknown subcommand %q", sub)
	}
}

func (c *ctl) cacheCmd(args []string) error {
	if c.cache == nil {
		return fmt.Errorf("read cache disabled (-cache-mem-mib 0 -cache-disk-mib 0)")
	}
	if len(args) == 0 || args[0] == "status" {
		st := c.cache.Stats()
		fmt.Printf("memory: %s in %d objects, disk: %s in %d objects\n",
			st.MemUsed.SI(), st.MemObjects, st.DiskUsed.SI(), st.DiskObjects)
		fmt.Printf("hits: %d memory + %d disk, misses: %d, bypasses: %d (hit rate %.1f%%)\n",
			st.MemHits, st.DiskHits, st.Misses, st.Bypasses, 100*st.HitRate())
		fmt.Printf("fills: %d (%s), dedups: %d, evictions: %d, invalidations: %d, fill errors: %d\n",
			st.Fills, units.Bytes(st.FillBytes).SI(), st.Dedups, st.Evictions, st.Invalidations, st.FillErrors)
		for _, e := range c.cache.Entries() {
			mark := ""
			if e.Hot {
				mark = " [hot]"
			}
			if !e.Verified {
				mark += " [unverified]"
			}
			fmt.Printf("%-8s  %-10s  %s%s\n", e.Tier, e.Size.SI(), e.Path, mark)
		}
		return nil
	}
	if len(args) != 2 {
		return fmt.Errorf("cache: need SUBCOMMAND PATH (or no args for status)")
	}
	sub, path := args[0], args[1]
	switch sub {
	case "evict":
		if !c.cache.Evict(path) {
			return fmt.Errorf("%s is not cached", path)
		}
		fmt.Printf("evicted %s from the read cache\n", path)
		return nil
	case "warm":
		n, err := c.cache.Warm(path)
		if err != nil {
			return err
		}
		fmt.Printf("warmed %d objects under %s\n", n, path)
		return nil
	default:
		return fmt.Errorf("cache: unknown subcommand %q", sub)
	}
}

func (c *ctl) tierCmd(args []string) error {
	if len(args) == 0 {
		st := c.tier.Stats()
		fmt.Printf("hot: %d resident + %d premigrated, cold: %d migrated (%d pinned)\n",
			st.Resident, st.Premigrated, st.Migrated, st.Pinned)
		fmt.Printf("lifetime: %d premigrations, %d migrations (%s), %d recalls (%s)\n",
			st.Premigrations, st.Migrations, st.MigratedBytes.SI(), st.Recalls, st.RecallBytes.SI())
		for _, e := range c.tier.Entries() {
			mark := ""
			if e.Pinned {
				mark = " [pinned]"
			}
			fmt.Printf("%-12s  %-10s  %s%s\n", e.State, e.Size.SI(), e.Path, mark)
		}
		return nil
	}
	if len(args) != 2 {
		return fmt.Errorf("tier: need SUBCOMMAND PATH (or no args for status)")
	}
	sub, path := args[0], args[1]
	switch sub {
	case "migrate":
		if err := c.tier.Migrate(path); err != nil {
			return err
		}
		fmt.Printf("migrated %s to cold tier\n", path)
	case "recall":
		if err := c.tier.Recall(path); err != nil {
			return err
		}
		fmt.Printf("recalled %s to hot tier\n", path)
	case "pin":
		if err := c.tier.Pin(path); err != nil {
			return err
		}
		fmt.Printf("pinned %s (in-memory; lasts for this invocation's scans)\n", path)
	case "unpin":
		if err := c.tier.Unpin(path); err != nil {
			return err
		}
		fmt.Printf("unpinned %s\n", path)
	default:
		return fmt.Errorf("tier: unknown subcommand %q", sub)
	}
	return nil
}
