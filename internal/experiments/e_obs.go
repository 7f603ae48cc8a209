package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/adal"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/obs"
	"repro/internal/readcache"
	"repro/internal/units"
)

// E19 — the observability plane observing the facility end to end
// (PR 10).
//
// A facility run for many communities by a small operations staff
// (slide 4: "professional administration") lives or dies on whether
// the staff can see it: utilization per subsystem, per-tenant and
// per-operation latency, and — when one community's workflow is slow
// — where inside the stack the time went. This experiment drives a
// mixed workload (durable ingest, cold and hot federated reads, a
// distributed MapReduce job) through one facility and then interrogates
// the observability plane itself, three ways.
//
// Tracing: every request in the coverage phase carries a
// client-minted trace ID through the gateway into the read cache and
// the federation; the distributed job's ID rides the job spec over
// mrpc into the master and its workers, whose attempt spans are
// attached to the same trace. The bar: the spans of a traced hot read
// account for >= 95% of the request's server-side wall time (nothing
// material happens untraced), and the job's trace contains spans from
// the gateway, the master and the worker runtime.
//
// Exposition: one unauthenticated GET /metrics on the front door must
// render the whole stack — every line parseable Prometheus text
// (version 0.0.4) and counter families present from all six
// subsystems (gateway, dfs, cache, repl, mr, meta) plus the Go
// runtime gauges.
//
// Overhead: the design keeps instruments off the hot path (subsystem
// counters are sampled at scrape time from stats the code already
// kept), so the only per-request cost the plane adds is the gateway's
// instrument set: one tenant counter, one byte counter, one latency
// histogram observation, and nil-span checks. The bench replays the
// same hot cached read with and without exactly that set, alternating
// batches and taking each mode's best batch so scheduler noise
// cancels. The bar: within 2%. A third mode turns per-request tracing
// on (a real root+op span pair pushed through the trace ring) and is
// reported unbounded — tracing is per-request opt-in, not an
// always-on tax.

const (
	e19Objects      = 48
	e19ObjSize      = 32 * units.KiB
	e19HotSize      = 1 * units.MiB
	e19TracedReads  = 24
	e19BenchObjSize = 1 * units.MiB
	// Under the race detector the bench only has to produce a row, not
	// a meaningful bound (the test waives the 2% bar there), so it
	// shrinks rather than spending seconds timing the race runtime.
	e19BenchRounds = 12 / min(raceScale, 4)
	e19BenchBatch  = 400 / min(raceScale, 4)
)

func e19Path(i int) string { return fmt.Sprintf("/sites/e19/obj-%03d", i) }

// e19Coverage measures how much of the root span's wall time the
// other spans of the trace account for: the union of their intervals
// clipped to the root's window, divided by the root duration.
func e19Coverage(tv obs.TraceView) (float64, time.Duration) {
	var rootStart, rootEnd int64
	for _, sp := range tv.Spans {
		if sp.Name == "gw.request" {
			rootStart, rootEnd = sp.Start, sp.Start+sp.DurNs
		}
	}
	if rootEnd <= rootStart {
		return 0, 0
	}
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, sp := range tv.Spans {
		if sp.Name == "gw.request" {
			continue
		}
		a, b := sp.Start, sp.Start+sp.DurNs
		if a < rootStart {
			a = rootStart
		}
		if b > rootEnd {
			b = rootEnd
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, cursor int64
	for _, v := range ivs {
		if v.a > cursor {
			cursor = v.a
		}
		if v.b > cursor {
			covered += v.b - cursor
			cursor = v.b
		}
	}
	return float64(covered) / float64(rootEnd-rootStart), time.Duration(rootEnd - rootStart)
}

// e19Layers reduces a trace to the set of instrumented layers it
// crossed: the prefix before the first '.' of each span name
// (gw, cache, fed, dfs, master, mr).
func e19Layers(tv obs.TraceView) []string {
	set := map[string]bool{}
	for _, sp := range tv.Spans {
		if i := strings.IndexByte(sp.Name, '.'); i > 0 {
			set[sp.Name[:i]] = true
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Prometheus text exposition v0.0.4, the subset this reproduction
// emits: integer samples, at most one label plus the histogram's le.
var (
	e19TypeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	e19HelpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	e19SampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (-?\d+)$`)
)

// e19ParseProm validates the exposition line by line and returns the
// per-family value sums (histogram series summed into their _bucket/
// _sum/_count names) plus the number of unparseable lines.
func e19ParseProm(text string) (values map[string]int64, families map[string]string, badLines []string) {
	values = map[string]int64{}
	families = map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			if !e19TypeLine.MatchString(line) {
				badLines = append(badLines, line)
				continue
			}
			f := strings.Fields(line)
			families[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			if !e19HelpLine.MatchString(line) {
				badLines = append(badLines, line)
			}
		default:
			m := e19SampleLine.FindStringSubmatch(line)
			if m == nil {
				badLines = append(badLines, line)
				continue
			}
			var v int64
			fmt.Sscanf(m[4], "%d", &v)
			values[m[1]] += v
		}
	}
	return values, families, badLines
}

// e19Overhead prices the gateway's per-request instrument set on a
// hot cached read: the identical read loop runs bare, with the
// instrument set (tenant counter + byte counter + latency histogram,
// all resolved once like the gateway resolves them), and with
// per-request tracing on. Modes alternate batch by batch and each
// mode keeps its best batch, so the comparison is between the best
// runs of the same code path, not between different noise.
func e19Overhead() (bare, instr, traced time.Duration, err error) {
	// Settle the heap first: this bench hunts a ~1% delta, and a GC
	// cycle inherited from an earlier phase would drown it.
	runtime.GC()
	inner := adal.NewMemFS("e19-bench")
	const path = "hot"
	w, err := inner.Create(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := w.Write(make([]byte, int(e19BenchObjSize))); err != nil {
		return 0, 0, 0, err
	}
	if err := w.Close(); err != nil {
		return 0, 0, 0, err
	}
	cache := readcache.New(inner, readcache.Config{Memory: 4 * units.MiB})

	reg := obs.New()
	requests := reg.CounterVec("e19_requests_total", "bench", "tenant").With("ops")
	bytesOut := reg.CounterVec("e19_bytes_out_total", "bench", "tenant").With("ops")
	reqDur := reg.HistogramVec("e19_request_ns", "bench", "op").With("get_object")
	ring := obs.NewTracer(64)

	// The read loop drains through Read calls into a real buffer — a
	// WriteTo into io.Discard would elide the copy and leave nothing
	// for the instrument cost to be measured against.
	buf := make([]byte, 64*units.KiB)
	read := func(ctx context.Context) (int64, error) {
		rc, err := cache.OpenCtx(ctx, path)
		if err != nil {
			return 0, err
		}
		defer rc.Close()
		var n int64
		for {
			k, err := rc.Read(buf)
			n += int64(k)
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return n, err
			}
		}
	}
	// Warm the memory tier so every measured read is a hit.
	if _, err := read(context.Background()); err != nil {
		return 0, 0, 0, err
	}

	batch := func(mode int) (time.Duration, error) {
		ctx := context.Background()
		start := time.Now()
		for i := 0; i < e19BenchBatch; i++ {
			switch mode {
			case 0: // bare
				if _, err := read(ctx); err != nil {
					return 0, err
				}
			case 1: // + gateway instrument set
				t0 := time.Now()
				n, err := read(ctx)
				if err != nil {
					return 0, err
				}
				requests.Inc()
				bytesOut.Add(n)
				reqDur.ObserveSince(t0)
			case 2: // + per-request tracing through the ring
				td := ring.StartTrace("GET /v1/objects/hot")
				root := obs.StartSpanOn(td, "gw.request")
				t0 := time.Now()
				n, err := read(obs.ContextWithTrace(ctx, td))
				if err != nil {
					return 0, err
				}
				requests.Inc()
				bytesOut.Add(n)
				reqDur.ObserveSince(t0)
				root.End()
			}
		}
		return time.Since(start) / e19BenchBatch, nil
	}
	best := [3]time.Duration{1 << 62, 1 << 62, 1 << 62}
	for r := 0; r < e19BenchRounds; r++ {
		for mode := 0; mode < 3; mode++ {
			d, err := batch(mode)
			if err != nil {
				return 0, 0, 0, err
			}
			if d < best[mode] {
				best[mode] = d
			}
		}
	}
	return best[0], best[1], best[2], nil
}

// E19Observability runs the observability-plane experiment.
func E19Observability() (*Table, error) {
	// The overhead bench runs first, before the facility exists: its
	// heartbeat/worker goroutines would sit on the same cores as the
	// read loop and turn a nanosecond-scale comparison into noise.
	bare, instr, traced, err := e19Overhead()
	if err != nil {
		return nil, err
	}

	fac, err := facility.New(facility.Options{
		DFSNodes:        4,
		Sites:           []string{"near", "far"},
		ReadCacheMemory: 8 * units.MiB,
		ComputeWorkers:  2,
	})
	if err != nil {
		return nil, err
	}
	defer fac.Close()
	srv, err := gateway.ForFacility(fac, gateway.Config{
		Tenants: []gateway.Tenant{{
			Name: "ops", Token: "e19-token", Prefixes: []string{"/"},
			RPS: 1e6, Burst: 1 << 20, MaxInFlight: 256,
		}},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	c, err := client.New("http://"+ln.Addr().String(), "e19-token", client.Options{
		MaxRetries: 8, Backoff: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// ---- workload: exercise every subsystem the scrape must show ----
	for i := 0; i < e19Objects; i++ {
		data := e17Payload(i, int(e19ObjSize))
		if _, err := c.PutObject(ctx, e19Path(i), data, "e19", "raw"); err != nil {
			return nil, fmt.Errorf("e19 put %d: %w", i, err)
		}
	}
	for pass := 0; pass < 2; pass++ { // cold fills, then hot hits
		for i := 0; i < e19Objects; i++ {
			if _, err := c.ReadObject(ctx, e19Path(i)); err != nil {
				return nil, fmt.Errorf("e19 read %d: %w", i, err)
			}
		}
	}

	// Distributed job, traced end to end: the ID minted here rides the
	// HTTP header into the gateway, then the job spec over mrpc into
	// the master and its workers.
	for i, text := range []string{"to be or not to be\n", "be the change\n"} {
		p := fmt.Sprintf("/hdfs/e19/books/%d.txt", i)
		if _, err := c.PutObject(ctx, p, []byte(text), ""); err != nil {
			return nil, err
		}
	}
	jobTrace := obs.NewTraceID()
	jctx := obs.ContextWithTrace(ctx, &obs.TraceData{ID: jobTrace})
	js, err := c.SubmitJob(jctx, gateway.JobRequest{
		Job:    "linecount",
		Inputs: []string{"/e19/books/0.txt", "/e19/books/1.txt"}, OutputDir: "/e19-out",
	})
	if err != nil {
		return nil, fmt.Errorf("e19 submit: %w", err)
	}
	done, err := c.WaitJob(ctx, js.ID, 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	if done.State != gateway.JobDone {
		return nil, fmt.Errorf("e19 job: %+v", done)
	}
	jobView, ok := srv.TraceRing().Lookup(jobTrace)
	if !ok {
		return nil, fmt.Errorf("e19: job trace %s not in the ring", jobTrace)
	}
	jobLayers := e19Layers(jobView)

	// ---- tracing: span coverage of a hot read's wall time ----
	hotPath := "/sites/e19/hot"
	if _, err := c.PutObject(ctx, hotPath, e17Payload(9000, int(e19HotSize)), "e19"); err != nil {
		return nil, err
	}
	if _, err := c.ReadObject(ctx, hotPath); err != nil { // warm the cache
		return nil, err
	}
	var coverages []float64
	readLayers := map[string]bool{}
	for i := 0; i < e19TracedReads; i++ {
		id := obs.NewTraceID()
		tctx := obs.ContextWithTrace(ctx, &obs.TraceData{ID: id})
		if _, err := c.ReadObject(tctx, hotPath); err != nil {
			return nil, fmt.Errorf("e19 traced read %d: %w", i, err)
		}
		// The body is read before the handler's deferred root End runs;
		// wait for the trace to complete instead of racing it.
		lctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		tv, ok := srv.TraceRing().LookupComplete(lctx, id)
		cancel()
		if !ok {
			return nil, fmt.Errorf("e19: trace %s not complete in the ring (%d open spans)", id, tv.OpenSpans)
		}
		cov, rootDur := e19Coverage(tv)
		if rootDur == 0 {
			return nil, fmt.Errorf("e19: trace %s has no gw.request root", id)
		}
		coverages = append(coverages, cov)
		for _, l := range e19Layers(tv) {
			readLayers[l] = true
		}
	}
	sort.Float64s(coverages)
	covMedian := coverages[len(coverages)/2]
	covMin := coverages[0]
	var rl []string
	for l := range readLayers {
		rl = append(rl, l)
	}
	sort.Strings(rl)

	// ---- exposition: one scrape shows the whole stack ----
	text, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	values, families, badLines := e19ParseProm(text)
	prefixes := []string{"lsdf_gateway_", "lsdf_dfs_", "lsdf_cache_", "lsdf_repl_", "lsdf_mr_", "lsdf_meta_"}
	present := 0
	var missing []string
	for _, p := range prefixes {
		found := false
		for fam := range families {
			if strings.HasPrefix(fam, p) {
				found = true
				break
			}
		}
		if found {
			present++
		} else {
			missing = append(missing, p)
		}
	}
	// Activity proof, not just registration: the workload above must
	// be visible in the counters it drove.
	activity := []string{
		"lsdf_gateway_requests_total", "lsdf_gateway_bytes_out_total",
		"lsdf_cache_mem_hits_total", "lsdf_cache_fills_total",
		"lsdf_dfs_bytes_written_total", "lsdf_mr_map_tasks_total",
		"lsdf_go_goroutines",
	}
	var idle []string
	for _, name := range activity {
		if values[name] == 0 {
			idle = append(idle, name)
		}
	}

	// ---- overhead: the per-request instrument set, priced ----
	pct := func(d time.Duration) float64 {
		return (float64(d)/float64(bare) - 1) * 100
	}

	presentCell := fmt.Sprintf("%d / %d", present, len(prefixes))
	if len(missing) > 0 {
		presentCell += " (missing " + strings.Join(missing, ",") + ")"
	}
	strOr := func(ss []string, none string) string {
		if len(ss) == 0 {
			return none
		}
		return strings.Join(ss, ",")
	}
	rows := [][]string{
		{"span coverage of request wall (median of 24 hot reads)", fmt.Sprintf("%.1f%%", covMedian*100)},
		{"span coverage (worst read)", fmt.Sprintf("%.1f%%", covMin*100)},
		{"layers in a traced read", strOr(rl, "-")},
		{"layers in the traced distributed job", strOr(jobLayers, "-")},
		{"/metrics families in one scrape", fmt.Sprint(len(families))},
		{"exposition lines failing to parse", fmt.Sprint(len(badLines))},
		{"subsystem prefixes present", presentCell},
		{"workload-driven counters still zero", strOr(idle, "none")},
		{"hot cached read, uninstrumented", bare.Round(10 * time.Nanosecond).String()},
		{"with the gateway instrument set", fmt.Sprintf("%s (%+.1f%%)", instr.Round(10*time.Nanosecond), pct(instr))},
		{"with per-request tracing on", fmt.Sprintf("%s (%+.1f%%)", traced.Round(10*time.Nanosecond), pct(traced))},
	}
	return &Table{
		ID:    "E19",
		Title: "observability plane: tracing coverage, one-scrape exposition, instrument cost",
		PaperClaim: "the LSDF is operated as a professional service for many communities " +
			"(slides 4, 10): its staff need facility-wide visibility — utilization, " +
			"per-tenant behaviour, and where inside the stack a slow request spent its time",
		Columns: []string{"metric", "value"},
		Rows:    rows,
		Notes: fmt.Sprintf("workload = %d x %s durable ingests, cold+hot federated reads, one traced linecount on 2 workers; "+
			"coverage = union of non-root spans over the gw.request window; scrape is the unauthenticated front-door GET /metrics; "+
			"overhead bench = %s cached read, %d alternating batches of %d, best batch per mode",
			e19Objects, e19ObjSize.SI(), e19BenchObjSize.SI(), e19BenchRounds, e19BenchBatch),
	}, nil
}
