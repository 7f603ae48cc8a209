package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"time"

	"repro/internal/gateway"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
	"repro/internal/mrpc"
	"repro/internal/units"
)

// tracedClient is the client index the traced pass generates its ops
// for: its own key space and its own seeded sequence, so the replay is
// the same ops every run and never collides with the rounds' objects.
// preloadClient owns what ingest-durable's set-up registers.
const (
	preloadClient = 80
	tracedClient  = 90
)

// rung names one step of a ladder and whether its self time or its
// whole span is that layer's share of the top rung.
type rung struct {
	span   string
	metric string
	self   bool
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// ladderMetrics reports each rung's median and how far the rungs'
// medians miss the top rung's median: ladder.residual_ratio.
func ladderMetrics(tr *tracer, res *result, top string, scale func(float64) float64, rungs []rung) {
	var sum float64
	for _, r := range rungs {
		v := tr.totals(r.span)
		if r.self {
			v = tr.selfs(r.span)
		}
		m := median(v)
		sum += m
		res.setLayer(r.metric, scale(m))
	}
	total := median(tr.totals(top))
	res.setLayer("ladder.residual_ratio", ratio(math.Abs(total-sum), total))
}

// opSpan runs one op through the gateway client and records its own
// clock as a top-rung span.
func (e *env) opSpan(tr *tracer, name string, opID int, cl *benchClient, o op) (int, error) {
	t0, d, ok := e.do(cl, o)
	if !ok {
		return 0, fmt.Errorf("traced op on %s failed", o.Path)
	}
	return tr.add(name, opID, -1, t0, d), nil
}

// drainRange does to a reader what the gateway does for a range read:
// discard up to the offset, read the range, close.
func drainRange(rc io.ReadCloser, err error, off, n int64, buf []byte) error {
	if err != nil {
		return err
	}
	defer rc.Close()
	if off > 0 {
		if _, err := io.CopyN(io.Discard, rc, off); err != nil {
			return err
		}
	}
	_, err = io.ReadFull(rc, buf[:n])
	return err
}

func (e *env) tracedPass(tr *tracer, res *result, cl *benchClient) error {
	n := int(float64(e.def.TracedOps) * e.cfg.Size.tracedScale)
	if n < 3 {
		n = 3
	}
	var top string
	var err error
	switch e.def.Name {
	case "read-hot", "read-cold", "mixed-rw":
		top, err = "client.get", e.tracedReads(tr, res, cl, n)
	case "ingest-durable":
		top, err = "client.ingest", e.tracedIngest(tr, res, cl, n)
	default:
		top, err = "client.job", e.tracedJobs(tr, res, cl, n)
	}
	if err != nil {
		return err
	}
	// Scrape cost: the facility registers samplers that take locked
	// snapshots; one GET /metrics runs all of them.
	for i := 0; i < 20; i++ {
		if _, err := tr.timed("obs.scrape", -1, -1, func() error {
			_, err := cl.c.MetricsText(e.ctx)
			return err
		}); err != nil {
			return err
		}
	}
	res.setLayer("obs.scrape_ms", ms(median(tr.totals("obs.scrape"))))

	untraced := res.EndToEnd["p50_ms"].Value
	res.setLayer("trace.overhead_ratio", ratio(ms(median(tr.totals(top))), untraced))
	return nil
}

// ---- read ladder -------------------------------------------------------

// tracedReads replays seeded reads down the read path. On read-cold
// every rung that passes the cache starts from an evicted object, so
// each is a miss with a whole-object fill; elsewhere the cache is left
// as the rounds left it.
func (e *env) tracedReads(tr *tracer, res *result, cl *benchClient, n int) error {
	fac := e.st.fac
	cold := e.def.Name == "read-cold"
	g := e.gen(tracedClient)
	if e.def.Name == "mixed-rw" { // the GET ladder runs on the shared hot set
		g = newZipfGen(clientRand(e.cfg.Seed, tracedClient), e.cfg.Size.hotObjects, spaceShared, sharedPath)
	}
	buf := make([]byte, hotSize)
	for i := 0; i < n; i++ {
		o := g.next()
		rel := trimSites(o.Path)
		force := func() {
			if cold {
				fac.ReadCache.Evict(rel)
			}
		}
		force()
		id, err := e.opSpan(tr, "client.get", i, cl, o)
		if err != nil {
			return err
		}
		force()
		hdr := http.Header{}
		if o.Kind == opGetRange {
			hdr.Set("Range", fmt.Sprintf("bytes=%d-%d", o.Off, o.Off+o.Len-1))
		}
		if id, err = tr.timed("gateway.get", i, id, func() error {
			w, err := e.st.serve(http.MethodGet, "/v1/objects"+o.Path, hdr, nil, false)
			if err == nil && w.n != o.Len {
				err = fmt.Errorf("in-process GET %s: %d bytes", o.Path, w.n)
			}
			return err
		}); err != nil {
			return err
		}
		force()
		if id, err = tr.timed("adal.open", i, id, func() error {
			rc, err := fac.Layer.OpenCtx(e.ctx, o.Path)
			return drainRange(rc, err, o.Off, o.Len, buf)
		}); err != nil {
			return err
		}
		force()
		if id, err = tr.timed("readcache.open", i, id, func() error {
			rc, err := fac.ReadCache.OpenCtx(e.ctx, rel)
			return drainRange(rc, err, o.Off, o.Len, buf)
		}); err != nil {
			return err
		}
		if !cold {
			continue // a hit ends at the cache: the rung is all self time
		}
		if id, err = tr.timed("replication.open", i, id, func() error {
			rc, err := fac.Federation.OpenCtx(e.ctx, rel)
			return drainRange(rc, err, o.Off, o.Len, buf)
		}); err != nil {
			return err
		}
		if _, err = tr.timed("site.read", i, id, func() error {
			rc, err := fac.FedSites[0].Backend.Open(rel)
			return drainRange(rc, err, o.Off, o.Len, buf)
		}); err != nil {
			return err
		}
	}
	rungs := []rung{
		{"client.get", "client.http.self_us", true},
		{"gateway.get", "gateway.get.self_us", true},
		{"adal.open", "adal.open.self_us", true},
		{"readcache.open", "readcache.open.self_us", true},
	}
	if cold {
		rungs = append(rungs, rung{"replication.open", "replication.open.self_us", true}, rung{"site.read", "site.read.self_us", false})
	}
	ladderMetrics(tr, res, "client.get", us, rungs)
	res.setLayer("client.get.total_us", us(median(tr.totals("client.get"))))

	if cold {
		if err := e.tracedColdExtras(tr, res, cl, buf); err != nil {
			return err
		}
	}
	if e.def.Name == "mixed-rw" {
		return e.tracedPuts(tr, res, cl, n)
	}
	return nil
}

// tracedColdExtras prices the O(offset) range skip on a cached object
// and a read with the nearest site down.
func (e *env) tracedColdExtras(tr *tracer, res *result, cl *benchClient, buf []byte) error {
	fac := e.st.fac
	head := op{Kind: opGetRange, Obj: objID(spaceCold, 0, 0), Path: coldPath(0), Len: coldRange}
	tail := head
	tail.Off = e.cfg.Size.coldSize - coldRange
	if _, _, ok := e.do(cl, head); !ok { // fills the cache
		return fmt.Errorf("range warm-up failed")
	}
	for i := 0; i < 30; i++ {
		for _, s := range []struct {
			name string
			o    op
		}{{"gateway.range.head", head}, {"gateway.range.tail", tail}} {
			if _, err := e.opSpan(tr, s.name, -1, cl, s.o); err != nil {
				return err
			}
		}
	}
	res.setLayer("gateway.range.tail_over_head", ratio(median(tr.totals("gateway.range.tail")), median(tr.totals("gateway.range.head"))))

	// Failover: the same federation open with the nearest site down.
	// The first opens pay the stale marks; the steady state is timed.
	near := fac.FedSites[0]
	near.SetDown(true)
	g := e.gen(tracedClient + 1)
	var ferr error
	for i := 0; i < 33 && ferr == nil; i++ {
		o := g.next()
		open := func() error {
			rc, err := fac.Federation.OpenCtx(e.ctx, trimSites(o.Path))
			return drainRange(rc, err, o.Off, o.Len, buf)
		}
		if i < 3 {
			ferr = open()
		} else {
			_, ferr = tr.timed("replication.failover", -1, -1, open)
		}
	}
	near.SetDown(false)
	fac.Replicator.Reconcile()
	fac.Replicator.Wait()
	if ferr != nil {
		return fmt.Errorf("failover read: %w", ferr)
	}
	res.setLayer("replication.failover.total_us", us(median(tr.totals("replication.failover"))))
	return nil
}

// tracedPuts times the write rungs of mixed-rw: a registered PUT over
// HTTP, the same through ServeHTTP, and the bare ADAL create.
func (e *env) tracedPuts(tr *tracer, res *result, cl *benchClient, n int) error {
	n = n/4 + 1
	for i := 0; i < n; i++ {
		obj := func(k int) (uint64, string, []byte) {
			id := objID(spaceTrace, tracedClient, 3*i+k)
			return id, ownPath(tracedClient, 3*i+k), e.pay.make(id, hotSize)
		}
		id0, path0, _ := obj(0)
		top, err := e.opSpan(tr, "client.put", i, cl, op{Kind: opPut, Obj: id0, Path: path0, Len: hotSize})
		if err != nil {
			return err
		}
		_, path1, data1 := obj(1)
		gw, err := tr.timed("gateway.put", i, top, func() error {
			_, err := e.st.serve(http.MethodPut, "/v1/objects"+path1+"?project=bench-rw", nil, data1, false)
			return err
		})
		if err != nil {
			return err
		}
		_, path2, data2 := obj(2)
		if _, err := tr.timed("adal.put", i, gw, func() error { return e.put(path2, data2) }); err != nil {
			return err
		}
	}
	res.setLayer("client.put.total_us", us(median(tr.totals("client.put"))))
	res.setLayer("gateway.put.self_us", us(median(tr.selfs("gateway.put"))))
	res.setLayer("adal.put.total_us", us(median(tr.totals("adal.put"))))
	return nil
}

// ---- ingest ladder -----------------------------------------------------

// tracedIngest replays ingest batches down the write path. The two
// metadata rungs run on standalone stores opened with the facility's
// options: one on a WAL directory behind the timing FS wrapper, one in
// memory. They have no bus subscribers, so what the facility's rules,
// replication and cache listeners cost lands in gateway.ingest.self_us.
func (e *env) tracedIngest(tr *tracer, res *result, cl *benchClient, n int) error {
	tfs := &timedFS{FS: durafs.OS()}
	dir := e.scratch("wal-ladder")
	defer os.RemoveAll(dir)
	walStore, err := metadata.Open(metadata.Options{WALDir: dir, GroupCommitInterval: 0, FS: tfs})
	if err != nil {
		return err
	}
	defer walStore.Close()
	memStore := metadata.NewStore()
	defer memStore.Close()

	specsOf := func(objs []gateway.IngestObject) []metadata.CreateSpec {
		specs := make([]metadata.CreateSpec, len(objs))
		for i, o := range objs {
			specs[i] = metadata.CreateSpec{Project: o.Project, Path: o.Path, Size: units.Bytes(len(o.Data)), Tags: o.Tags}
		}
		return specs
	}
	batchOK := func(rs []metadata.CreateResult) error {
		for _, r := range rs {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	var datasets int64
	for i := 0; i < n; i++ {
		batch := func(k int) []gateway.IngestObject {
			return e.ingestObjects(tracedClient+k, op{Obj: objID(spaceIngest, tracedClient+k, i*ingestBatch)})
		}
		t0, d, ok := e.doIngest(cl, batch(0))
		if !ok {
			return fmt.Errorf("traced ingest batch %d not fully registered", i)
		}
		top := tr.add("client.ingest", i, -1, t0, d)
		gw, err := tr.timed("gateway.ingest", i, top, func() error {
			acks, err := e.ingestInProcess(batch(1))
			cl.acked = append(cl.acked, acks...)
			return err
		})
		if err != nil {
			return err
		}
		objs := batch(2)
		if _, err := tr.timed("adal.create", i, gw, func() error {
			for _, o := range objs {
				if err := e.put(o.Path, o.Data); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		specs := specsOf(batch(3))
		md := tr.begin("metadata.create_batch", i, gw)
		tfs.hook(func(kind string, start time.Time, d time.Duration) { tr.add(kind, i, md, start, d) })
		err = batchOK(walStore.CreateBatch(specs))
		tr.end(md)
		if err != nil {
			return err
		}
		datasets += int64(len(specs))
		if _, err := tr.timed("metadata.create_batch.mem", i, -1, func() error {
			return batchOK(memStore.CreateBatch(specs))
		}); err != nil {
			return err
		}
	}
	tfs.hook(nil)
	fc := tfs.counts()

	ladderMetrics(tr, res, "client.ingest", us, []rung{
		{"client.ingest", "client.http.self_us", true},
		{"gateway.ingest", "gateway.ingest.self_us", true},
		{"adal.create", "adal.create.total_us", false},
		{"metadata.create_batch", "metadata.create_batch.total_us", false},
	})
	res.setLayer("client.ingest.total_us", us(median(tr.totals("client.ingest"))))
	res.setLayer("metadata.create_batch.self_us", us(median(tr.selfs("metadata.create_batch"))))
	res.setLayer("metadata.wal.fsync_us", us(median(fc.syncDurs)))
	res.setLayer("metadata.wal.fsyncs_per_batch", ratio(float64(len(fc.syncDurs)), float64(n)))
	res.setLayer("metadata.wal.write_us", us(ratio(float64(fc.walWriteNs), float64(fc.walWrites))))
	res.setLayer("metadata.wal.bytes_per_dataset", ratio(float64(fc.walBytes), float64(datasets)))
	res.setLayer("metadata.wal.bytes_per_user_byte", ratio(float64(fc.walBytes+fc.snapBytes), float64(datasets*ingestObjSize)))
	res.setLayer("metadata.durability_tax", ratio(median(tr.totals("metadata.create_batch")), median(tr.totals("metadata.create_batch.mem"))))

	crash, err := e.crashCheck(n)
	if err != nil {
		return err
	}
	res.setLayer("metadata.crash_recovered_ratio", crash)
	return nil
}

// crashCheck registers batches on an in-memory durafs, drops every
// write that was not fsynced (all or a random torn prefix of them) and
// reopens: each acknowledged dataset must be there. A kill -9 in this
// sandbox would leave the page cache intact and prove nothing, so the
// check discards unflushed writes itself.
func (e *env) crashCheck(batches int) (float64, error) {
	mem := durafs.NewMem()
	opts := metadata.Options{WALDir: "/wal", GroupCommitInterval: 0, FS: mem}
	store, err := metadata.Open(opts)
	if err != nil {
		return 0, err
	}
	var acked []ack
	for b := 0; b < batches; b++ {
		specs := make([]metadata.CreateSpec, ingestBatch)
		for i := range specs {
			specs[i] = metadata.CreateSpec{Project: ingestProject, Path: ingestPath(tracedClient+4, b, i), Size: ingestObjSize, Tags: []string{"raw"}}
		}
		for _, r := range store.CreateBatch(specs) {
			if r.Err != nil {
				store.Close()
				return 0, r.Err
			}
			acked = append(acked, ack{Path: r.Dataset.Path, ID: r.Dataset.ID})
		}
	}
	mem.Crash(rand.New(rand.NewSource(e.cfg.Seed)))
	reopened, err := metadata.Open(opts)
	store.Close() // the crashed instance: only its goroutines are released
	if err != nil {
		return 0, fmt.Errorf("reopen after crash: %w", err)
	}
	defer reopened.Close()
	found := checkRecovered(acked, func(path string) (string, bool) {
		ds, ok := reopened.ByPath(path)
		return ds.ID, ok
	})
	return ratio(float64(found), float64(len(acked))), nil
}

// ---- compute ladder ----------------------------------------------------

// tracedJobs replays wordcount jobs down the compute path: through the
// gateway, straight into the facility's distributed plane, and on the
// single-process engine — the data-bound floor.
func (e *env) tracedJobs(tr *tracer, res *result, cl *benchClient, n int) error {
	fac := e.st.fac
	engineCfg, err := mapreduce.Builtin().Resolve(wordcountSpec(""))
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t0, d, ok := e.doJob(cl, jobOutputDir("traced-client", i))
		if !ok {
			return fmt.Errorf("traced job %d failed", i)
		}
		top := tr.add("client.job", i, -1, t0, d)
		var out *mapreduce.Result
		if _, err := tr.timed("mapreduce.distributed", i, top, func() error {
			out, err = fac.RunNamedJob(wordcountSpec(jobOutputDir("traced-dist", i)), benchTenant)
			return err
		}); err != nil {
			return err
		}
		if err := e.checkJobOutput(out.OutputFiles); err != nil {
			return err
		}
		engineCfg.OutputDir = jobOutputDir("traced-engine", i)
		if _, err := tr.timed("mapreduce.engine", i, -1, func() error {
			out, err = mapreduce.Run(fac.DFS, engineCfg)
			return err
		}); err != nil {
			return err
		}
		if err := e.checkJobOutput(out.OutputFiles); err != nil {
			return err
		}
	}
	ladderMetrics(tr, res, "client.job", ms, []rung{
		{"client.job", "gateway.job.self_ms", true},
		{"mapreduce.distributed", "mapreduce.distributed.total_ms", false},
	})
	dist, engine := median(tr.totals("mapreduce.distributed")), median(tr.totals("mapreduce.engine"))
	res.setLayer("client.job.total_ms", ms(median(tr.totals("client.job"))))
	res.setLayer("mapreduce.engine.total_ms", ms(engine))
	res.setLayer("mapreduce.distributed_over_engine", ratio(dist, engine))
	res.setLayer("mapreduce.ms_per_task", ratio(ms(dist), res.PerLayer["mapreduce.tasks_per_job"].Value))

	// One control-plane round trip: a heartbeat from a worker the
	// master does not know is answered Unknown and assigns nothing.
	mc := mrpc.NewClient(fac.Compute.URL())
	for i := 0; i < 50; i++ {
		if _, err := tr.timed("mrpc.heartbeat", -1, -1, func() error {
			var rep mrpc.HeartbeatReply
			if err := mc.Call(context.Background(), mrpc.PathHeartbeat, &mrpc.HeartbeatRequest{Worker: "bench-unregistered"}, &rep); err != nil {
				return err
			}
			if !rep.Unknown {
				return fmt.Errorf("heartbeat from an unregistered worker was not answered Unknown")
			}
			return nil
		}); err != nil {
			return err
		}
	}
	mc.HC.CloseIdleConnections()
	res.setLayer("mrpc.rtt_us", us(median(tr.totals("mrpc.heartbeat"))))

	// DFS streaming rates at the corpus's size.
	for i := 0; i < 5; i++ {
		var data []byte
		if _, err := tr.timed("dfs.read", -1, -1, func() error {
			data, err = fac.DFS.ReadFile(corpusPath, "")
			return err
		}); err != nil {
			return err
		}
		if !bytes.Equal(data, e.corpus) {
			return fmt.Errorf("corpus read back differs")
		}
		name := fmt.Sprintf("/bench/traced-dfs/w%02d", i)
		if _, err := tr.timed("dfs.write", -1, -1, func() error { return fac.DFS.WriteFile(name, "", e.corpus) }); err != nil {
			return err
		}
		_ = fac.DFS.Delete(name)
	}
	mb := float64(len(e.corpus)) / 1e6
	res.setLayer("dfs.read_mb_per_s", ratio(mb, median(tr.totals("dfs.read"))/1e9))
	res.setLayer("dfs.write_mb_per_s", ratio(mb, median(tr.totals("dfs.write"))/1e9))
	return nil
}
