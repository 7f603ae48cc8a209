// Command lsdfctl is the facility operations CLI: ingest files with
// checksums and metadata, browse, query and tag them, run analysis
// jobs, and administer tier placement, mirror sites and the read cache.
//
//	lsdfctl -state /tmp/lsdf ingest -project zebrafish /data/*.raw
//	lsdfctl -state /tmp/lsdf ls /data
//	lsdfctl -state /tmp/lsdf query -project zebrafish -tag raw
//	lsdfctl -state /tmp/lsdf tag /data/img1.raw analyze
//	lsdfctl -state /tmp/lsdf tier migrate /data/img1.raw
//
// The user verbs (ingest, ls, stat, tag, untag, query, jobs, metrics,
// traces) have one implementation: gateway client calls. With -server
// they go to a live lsdfd, authenticated by -token:
//
//	lsdfctl -server http://lsdf.example:7420 -token SECRET ls /data
//
// With -state they go to a gateway this process serves on loopback over
// the state directory (internal/statedir: wal/ is the metadata journal,
// objects/ and cold/ the tiers, cache/ the read cache's disk tier,
// sites/ the mirror sites, lock the flock that keeps a second process
// out). The facility-internal planes (tier, replica, cache, export)
// have no gateway equivalent and run on the state directory directly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/adal"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/statedir"
	"repro/internal/units"
)

// options are the global flags.
type options struct {
	state, server, token string
	trace                bool
	cacheMem, cacheDisk  int // MiB
}

func main() {
	var o options
	flag.StringVar(&o.state, "state", "", "state directory (created if missing)")
	flag.IntVar(&o.cacheMem, "cache-mem-mib", 64, "read cache memory tier budget in MiB (0 disables the cache)")
	flag.IntVar(&o.cacheDisk, "cache-disk-mib", 256, "read cache disk tier budget in MiB (persisted under STATE/cache)")
	flag.StringVar(&o.server, "server", "", "lsdfd gateway URL: run commands remotely instead of against -state")
	flag.StringVar(&o.token, "token", "", "bearer token for -server")
	flag.BoolVar(&o.trace, "trace", false, "mint a request trace for this command and print its ID (inspect with: lsdfctl traces ID)")
	flag.Parse()
	if (o.state == "" && o.server == "") || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "lsdfctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lsdfctl -state DIR COMMAND [args]
       lsdfctl -server URL -token SECRET COMMAND [args]

One process at a time may open a state directory. The facility-internal
planes (tier, replica, cache, export) need -state.

commands:
  ingest [-project P] [-dest PREFIX] FILE...
                              store files under PREFIX (default /data) with
                              checksums and register them, tagged raw
  ls PREFIX                   list stored objects joined with metadata
  stat PATH                   show one object's dataset record
  tag PATH TAG                tag a dataset
  untag PATH TAG              remove a tag
  query [-project P] [-tag T] find datasets
  jobs submit -job NAME -out DIR [-reducers N] [-arg K=V] [-wait] INPUT...
                              run a named analysis job (with -state it always
                              waits: the job runs in this process)
  jobs status [ID]            show one job, or list this gateway's jobs
  jobs wait ID                block until a job finishes and print its result
  metrics                     dump the facility's Prometheus metrics
  traces [-n N] [ID]          show recent request traces, or one trace's spans
  export                      dump the metadata DB as JSON to stdout
  tier                        show per-object tier placement and counters
  tier migrate PATH           move an object's bytes to the cold tier
  tier recall PATH            bring a migrated object's bytes back
  tier pin PATH               exempt an object from migration (until unpin)
  tier unpin PATH             re-admit an object to migration
  replica status              show the replica catalogue (per-object site states)
  replica add PATH SITE       copy an object to a mirror site (created on demand)
  replica drop PATH SITE      remove an object's replica from a site
  replica verify PATH         re-checksum every replica against the journaled digest
  cache status                show read-cache counters and cached objects
  cache evict PATH            drop an object from every cache tier
  cache warm PREFIX           pre-fill the cache with the objects under PREFIX`)
}

// run executes one command, printing its output to w. The internal
// planes run on the state directory; every other verb runs through a
// gateway client, of the -server gateway or of the one served over
// -state.
func run(w io.Writer, o options, args []string) error {
	cmd, rest := args[0], args[1:]
	var c *client.Client
	if o.server != "" {
		switch cmd {
		case "tier", "replica", "cache", "export":
			return fmt.Errorf("%q administers facility-internal state and needs -state on the facility host", cmd)
		}
		var err error
		if c, err = client.New(o.server, o.token); err != nil {
			return err
		}
	} else {
		d, err := statedir.Open(o.state, units.Bytes(o.cacheMem)*units.MiB, units.Bytes(o.cacheDisk)*units.MiB)
		if err != nil {
			return err
		}
		defer d.Close()
		switch cmd {
		case "tier":
			return tierCmd(w, d, rest)
		case "replica":
			return replicaCmd(w, d, rest)
		case "cache":
			return cacheCmd(w, d, rest)
		case "export":
			return d.Meta.Export(w)
		}
		if c, err = d.Client(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	if o.trace {
		// Client-side minting: the gateway adopts this ID, so the
		// user can pull the full span tree afterwards.
		id := obs.NewTraceID()
		ctx = obs.ContextWithTrace(ctx, &obs.TraceData{ID: id})
		defer fmt.Fprintf(os.Stderr, "trace: %s\n", id)
	}
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
		for _, src := range fs.Args() {
			dst := strings.TrimSuffix(*dest, "/") + "/" + filepath.Base(src)
			if err := ingest(ctx, w, c, src, dst, *project); err != nil {
				return fmt.Errorf("%s: %w", src, err)
			}
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
			fmt.Fprintf(w, "%-10s  %-40s  %s\n", info.Size.SI(), info.Path, mark)
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
		fmt.Fprintf(w, "id:       %s\nproject:  %s\npath:     %s\nsize:     %s\nchecksum: %s\ntags:     %s\n",
			ds.ID, ds.Project, ds.Path, ds.Size.SI(), ds.Checksum, strings.Join(ds.Tags, ","))
		for _, p := range ds.Processings {
			fmt.Fprintf(w, "processing %s: tool=%s results=%v outputs=%v\n", p.ID, p.Tool, p.Results, p.Outputs)
		}
		return nil
	case "tag", "untag":
		if len(rest) != 2 {
			return fmt.Errorf("%s: need PATH TAG", cmd)
		}
		tag := c.Tag
		if cmd == "untag" {
			tag = c.Untag
		}
		_, err := tag(ctx, rest[0], rest[1])
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
			fmt.Fprintf(w, "%s  %-10s  %-40s  [%s]\n", ds.ID, ds.Size.SI(), ds.Path, strings.Join(ds.Tags, ","))
		}
		return nil
	case "jobs":
		// A job submitted to this process's own gateway dies with it,
		// so with -state a submit always waits.
		return jobs(ctx, w, c, o.server == "", rest)
	case "metrics":
		text, err := c.MetricsText(ctx)
		if err != nil {
			return err
		}
		fmt.Fprint(w, text)
		return nil
	case "traces":
		return traces(ctx, w, c, rest)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// ingest streams one file into the object at dst and registers it.
func ingest(ctx context.Context, w io.Writer, c *client.Client, src, dst, project string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	// The transport closes a body that is an io.Closer; hiding Close
	// keeps the file open for the replay a 429 or 503 asks for.
	res, err := c.Put(ctx, dst, struct{ io.ReadSeeker }{f}, project, "raw")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s  %s  %s\n", res.DatasetID, res.Size.SI(), res.Path)
	return nil
}

// traces renders the gateway's debug trace ring: a summary line per
// trace, or — given an ID — one trace's span tree with durations.
func traces(ctx context.Context, w io.Writer, c *client.Client, rest []string) error {
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
		fmt.Fprintf(w, "trace %s  root=%q  start=%s\n", tv.ID, tv.Root, tv.Start.Format(time.RFC3339Nano))
		for _, sp := range tv.Spans {
			detail := ""
			if sp.Detail != "" {
				detail = "  " + sp.Detail
			}
			fmt.Fprintf(w, "  %-28s %12s%s\n", sp.Name, time.Duration(sp.DurNs), detail)
		}
		if tv.Dropped > 0 {
			fmt.Fprintf(w, "  (%d spans dropped)\n", tv.Dropped)
		}
		return nil
	}
	views, err := c.Traces(ctx, *n)
	if err != nil {
		return err
	}
	for _, tv := range views {
		var total int64
		for _, sp := range tv.Spans {
			total = max(total, sp.DurNs)
		}
		fmt.Fprintf(w, "%-24s  %-28s  %2d spans  %s\n", tv.ID, tv.Root, len(tv.Spans), time.Duration(total))
	}
	return nil
}

func jobs(ctx context.Context, w io.Writer, c *client.Client, alwaysWait bool, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("jobs: need submit|status|wait")
	}
	sub, rest := args[0], args[1:]
	var st gateway.JobStatus
	var err error
	switch sub {
	case "submit":
		fs := flag.NewFlagSet("jobs submit", flag.ContinueOnError)
		job := fs.String("job", "", "job template name (wordcount, linecount, grep, ...)")
		out := fs.String("out", "", "output directory for reducer part files")
		reducers := fs.Int("reducers", 0, "reducer count (default: template's)")
		wait := fs.Bool("wait", false, "block until the job finishes (a long-poll on the gateway; always on with -state)")
		jobArgs := map[string]string{}
		fs.Func("arg", "template argument KEY=VALUE (repeatable)", func(s string) error {
			k, v, ok := strings.Cut(s, "=")
			if !ok || k == "" {
				return fmt.Errorf("want KEY=VALUE, got %q", s)
			}
			jobArgs[k] = v
			return nil
		})
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *job == "" || *out == "" || fs.NArg() == 0 {
			return fmt.Errorf("jobs submit: need -job NAME -out DIR INPUT...")
		}
		st, err = c.SubmitJob(ctx, gateway.JobRequest{
			Job: *job, Inputs: fs.Args(), OutputDir: *out, NumReducers: *reducers, Args: jobArgs,
		})
		if err == nil && (*wait || alwaysWait) {
			st, err = c.WaitJob(ctx, st.ID, 50*time.Millisecond)
		}
	case "status":
		if len(rest) == 1 {
			st, err = c.Job(ctx, rest[0])
			break
		}
		sts, err := c.Jobs(ctx)
		if err != nil {
			return err
		}
		for _, st := range sts {
			printJob(w, st)
		}
		return nil
	case "wait":
		if len(rest) != 1 {
			return fmt.Errorf("jobs wait: need JOB-ID")
		}
		st, err = c.WaitJob(ctx, rest[0], 50*time.Millisecond)
	default:
		return fmt.Errorf("jobs: unknown subcommand %q", sub)
	}
	if err != nil {
		return err
	}
	printJob(w, st)
	if st.State == gateway.JobFailed {
		return fmt.Errorf("job %s failed", st.ID)
	}
	return nil
}

func printJob(w io.Writer, st gateway.JobStatus) {
	fmt.Fprintf(w, "%s  %s  %s", st.ID, st.Job, st.State)
	if st.DurationMS > 0 {
		fmt.Fprintf(w, "  %dms", st.DurationMS)
	}
	if st.Error != "" {
		fmt.Fprintf(w, "  error: %s", st.Error)
	}
	fmt.Fprintln(w)
	if st.State == gateway.JobDone {
		c := st.Counters
		fmt.Fprintf(w, "  tasks: %d map (%d local) + %d reduce, retries %d, speculative %d launched / %d won\n",
			c.MapTasks, c.LocalTasks, c.ReduceTasks, c.Retries, c.SpecLaunched, c.SpecWon)
		fmt.Fprintf(w, "  records: %d in, %d out; shuffle %s (%s remote), %d spill runs\n",
			c.InputRecords, c.OutputRecords, units.Bytes(c.ShuffleBytes).SI(),
			units.Bytes(c.RemoteShuffleBytes).SI(), c.SpillRuns)
		for _, f := range st.OutputFiles {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
}

func replicaCmd(w io.Writer, d *statedir.Dir, args []string) error {
	if len(args) == 0 || args[0] == "status" {
		return replicaStatus(w, d)
	}
	sub := args[0]
	switch sub {
	case "add", "drop":
		if len(args) != 3 {
			return fmt.Errorf("replica %s: need PATH SITE", sub)
		}
		path, site := args[1], args[2]
		if sub == "add" {
			if err := d.MountSite(site); err != nil {
				return err
			}
			// Adding over whatever the site holds (a stale replica, a
			// file the journal has no note for) refreshes it: clear the
			// old copy so Create succeeds.
			_ = d.Layer.Remove("/site/" + site + path)
			dg, err := d.Layer.CopyObjectChecksummed(path, "/site/"+site+path)
			if err != nil {
				return err
			}
			d.Meta.AddReplica(path, site, dg)
			fmt.Fprintf(w, "replicated %s to site %s (%s, sha256 %.12s…)\n", path, site, dg.Size.SI(), dg.Sum)
			return nil
		}
		if _, ok := d.Meta.Replica(path, site); !ok {
			return fmt.Errorf("no replica of %s on site %s", path, site)
		}
		if err := d.Layer.Remove("/site/" + site + path); err != nil {
			return err
		}
		d.Meta.DropReplica(path, site)
		fmt.Fprintf(w, "dropped replica of %s from site %s\n", path, site)
		return nil
	case "verify":
		if len(args) != 2 {
			return fmt.Errorf("replica verify: need PATH")
		}
		path := args[1]
		want, ok := d.Meta.Digest(path)
		reps := d.Meta.Replicas(path)
		if !ok || len(reps) == 0 {
			return fmt.Errorf("no replicas of %s", path)
		}
		for _, r := range reps {
			st, verdict := metadata.ReplicaValid, fmt.Sprintf("valid (sha256 %.12s…)", want.Sum)
			rc, err := d.Layer.Open("/site/" + r.Site + path)
			if err == nil {
				_, err = adal.Transfer(context.Background(), io.Discard, rc, want)
				rc.Close()
				if errors.Is(err, adal.ErrChecksum) {
					st, verdict = metadata.ReplicaStale, "STALE (checksum mismatch)"
				} else if err != nil {
					st, verdict = metadata.ReplicaStale, fmt.Sprintf("STALE (%v)", err)
				}
			} else {
				st, verdict = metadata.ReplicaLost, fmt.Sprintf("LOST (%v)", err)
			}
			if st == metadata.ReplicaValid {
				d.Meta.SetReplicaValid(path, r.Site, want)
			} else {
				d.Meta.SetReplica(path, r.Site, st)
			}
			fmt.Fprintf(w, "%-12s  %s  %s\n", r.Site, path, verdict)
		}
		return nil
	default:
		return fmt.Errorf("replica: unknown subcommand %q", sub)
	}
}

// replicaStatus prints the journal's replica rows, and every site file
// the journal has no note for as unregistered: a file is a replica only
// once replica add has recorded it.
func replicaStatus(w io.Writer, d *statedir.Dir) error {
	fmt.Fprintf(w, "sites: %s\n", strings.Join(d.Sites(), ", "))
	cols := make(map[string][]string) // path -> site=state
	counts := make(map[string]int)
	for _, path := range d.Meta.ReplicaPaths() {
		for _, r := range d.Meta.Replicas(path) {
			cols[path] = append(cols[path], r.Site+"="+r.State.String())
			counts[r.State.String()]++
		}
	}
	for _, site := range d.Sites() {
		infos, err := d.Layer.List("/site/" + site)
		if err != nil {
			return err
		}
		for _, info := range infos {
			path := strings.TrimPrefix(info.Path, "/site/"+site)
			if _, ok := d.Meta.Replica(path, site); !ok {
				cols[path] = append(cols[path], site+"=unregistered")
				counts["unregistered"]++
			}
		}
	}
	fmt.Fprintf(w, "replicas: %d valid, %d stale, %d lost; %d unregistered site files\n",
		counts["valid"], counts["stale"], counts["lost"], counts["unregistered"])
	paths := make([]string, 0, len(cols))
	for path := range cols {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fmt.Fprintf(w, "%-40s  %s\n", path, strings.Join(cols[path], "  "))
	}
	return nil
}

func cacheCmd(w io.Writer, d *statedir.Dir, args []string) error {
	if d.Cache == nil {
		return fmt.Errorf("read cache disabled (-cache-mem-mib 0 -cache-disk-mib 0)")
	}
	if len(args) == 0 || args[0] == "status" {
		st := d.Cache.Stats()
		fmt.Fprintf(w, "memory: %s in %d objects, disk: %s in %d objects\n",
			st.MemUsed.SI(), st.MemObjects, st.DiskUsed.SI(), st.DiskObjects)
		fmt.Fprintf(w, "hits: %d memory + %d disk, misses: %d, bypasses: %d (hit rate %.1f%%)\n",
			st.MemHits, st.DiskHits, st.Misses, st.Bypasses, 100*st.HitRate())
		fmt.Fprintf(w, "fills: %d (%s), dedups: %d, evictions: %d, invalidations: %d, fill errors: %d\n",
			st.Fills, units.Bytes(st.FillBytes).SI(), st.Dedups, st.Evictions, st.Invalidations, st.FillErrors)
		for _, e := range d.Cache.Entries() {
			mark := ""
			if e.Hot {
				mark = " [hot]"
			}
			if !e.Verified {
				mark += " [unverified]"
			}
			fmt.Fprintf(w, "%-8s  %-10s  %s%s\n", e.Tier, e.Size.SI(), e.Path, mark)
		}
		return nil
	}
	if len(args) != 2 {
		return fmt.Errorf("cache: need SUBCOMMAND PATH (or no args for status)")
	}
	sub, path := args[0], args[1]
	switch sub {
	case "evict":
		if !d.Cache.Evict(path) {
			return fmt.Errorf("%s is not cached", path)
		}
		fmt.Fprintf(w, "evicted %s from the read cache\n", path)
		return nil
	case "warm":
		n, err := d.Cache.Warm(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "warmed %d objects under %s\n", n, path)
		return nil
	default:
		return fmt.Errorf("cache: unknown subcommand %q", sub)
	}
}

func tierCmd(w io.Writer, d *statedir.Dir, args []string) error {
	if len(args) == 0 {
		st := d.Tier.Stats()
		fmt.Fprintf(w, "hot: %d resident + %d premigrated, cold: %d migrated (%d pinned)\n",
			st.Resident, st.Premigrated, st.Migrated, st.Pinned)
		fmt.Fprintf(w, "lifetime: %d premigrations, %d migrations (%s), %d recalls (%s)\n",
			st.Premigrations, st.Migrations, st.MigratedBytes.SI(), st.Recalls, st.RecallBytes.SI())
		rows := d.Meta.Placements("") // the tier is mounted at the root
		paths := make([]string, 0, len(rows))
		for p := range rows {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			mark := ""
			if rows[p].Pinned {
				mark = " [pinned]"
			}
			fmt.Fprintf(w, "%-12s  %-10s  %s%s\n", rows[p].State, rows[p].Digest.Size.SI(), p, mark)
		}
		return nil
	}
	if len(args) != 2 {
		return fmt.Errorf("tier: need SUBCOMMAND PATH (or no args for status)")
	}
	sub, path := args[0], args[1]
	switch sub {
	case "migrate":
		if err := d.Tier.Migrate(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "migrated %s to cold tier\n", path)
	case "recall":
		if err := d.Tier.Recall(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "recalled %s to hot tier\n", path)
	case "pin":
		if err := d.Tier.Pin(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "pinned %s (journaled; migrate refuses it until unpin)\n", path)
	case "unpin":
		if err := d.Tier.Unpin(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "unpinned %s\n", path)
	default:
		return fmt.Errorf("tier: unknown subcommand %q", sub)
	}
	return nil
}
