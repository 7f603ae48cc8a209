package gateway_test

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/obs"
	"repro/internal/units"
)

func obsGateway(t *testing.T) (*gateway.Server, string, *client.Client) {
	t.Helper()
	_, srv, hs := startGateway(t, facility.Options{Sites: []string{"near"}}, gateway.Config{
		Tenants: []gateway.Tenant{{
			Name: "katrin", Token: "k-token", Prefixes: []string{"/"},
			RPS: 1e9, Burst: 1 << 30, MaxInFlight: 1 << 20,
		}},
	})
	return srv, hs.URL, newClient(t, hs, "k-token")
}

// TestMetricsExposition pins the observability plane's contract: GET
// /metrics answers without credentials, stays up while draining, and
// its Prometheus text carries the gateway's per-tenant counters in
// sync with the legacy /v1/metrics JSON view.
func TestMetricsExposition(t *testing.T) {
	srv, base, c := obsGateway(t)

	ctx := context.Background()
	if _, err := c.PutObject(ctx, "/sites/katrin/obj", []byte("payload"), "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadObject(ctx, "/sites/katrin/obj"); err != nil {
		t.Fatal(err)
	}

	// Unauthenticated scrape.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics without auth: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`lsdf_gateway_requests_total{tenant="katrin"}`,
		`lsdf_gateway_bytes_in_total{tenant="katrin"} 7`,
		`lsdf_gateway_bytes_out_total{tenant="katrin"} 7`,
		"lsdf_gateway_in_flight",
		"lsdf_gateway_draining 0",
		`lsdf_gateway_request_ns_count{op="get_object"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The compatibility JSON view reads the same obs counters.
	mr, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Stats.BytesIn != 7 || mr.Stats.BytesOut != 7 {
		t.Fatalf("JSON view out of sync with obs counters: %+v", mr.Stats)
	}
	if mr.Stats.Requests < 2 {
		t.Fatalf("requests = %d, want >= 2", mr.Stats.Requests)
	}

	// Still scrapeable while draining, and the gauge flips.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics while draining: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "lsdf_gateway_draining 1") {
		t.Error("draining gauge did not flip")
	}
}

// TestRequestTracing pins the trace lifecycle over the wire: a
// client-minted ID is adopted and echoed, the trace lands in the
// debug ring with the gateway's root and per-op spans plus the mount
// stack's spans, and unknown IDs get the envelope 404.
func TestRequestTracing(t *testing.T) {
	srv, base, c := obsGateway(t)

	ctx := context.Background()
	if _, err := c.PutObject(ctx, "/sites/katrin/traced", []byte("hello trace"), "p"); err != nil {
		t.Fatal(err)
	}

	// Client-minted trace: the gateway must adopt the ID, not mint.
	id := obs.NewTraceID()
	tctx := obs.ContextWithTrace(ctx, &obs.TraceData{ID: id})
	if _, err := c.ReadObject(tctx, "/sites/katrin/traced"); err != nil {
		t.Fatal(err)
	}
	tv, err := c.Trace(ctx, id)
	if err != nil {
		t.Fatalf("trace %s not in ring: %v", id, err)
	}
	spans := make(map[string]bool)
	for _, sp := range tv.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"gw.request", "gw.auth", "gw.get_object"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (got %v)", want, tv.Spans)
		}
	}

	// Server-minted trace: echoed in the response header.
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/stat/sites/katrin/traced", nil)
	req.Header.Set("Authorization", "Bearer k-token")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(obs.TraceHeader)
	if minted == "" {
		t.Fatal("no X-LSDF-Trace echoed on a headerless request")
	}
	if _, ok := srv.TraceRing().Lookup(minted); !ok {
		t.Fatalf("minted trace %s not in ring", minted)
	}

	// Recent traces are served newest-first without credentials.
	views, err := c.Traces(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) == 0 {
		t.Fatal("empty trace ring")
	}

	// Unknown IDs keep the JSON-envelope error contract.
	resp, err = http.Get(base + "/v1/debug/traces?id=no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 content type %q, want JSON envelope", ct)
	}
}

// scrapeNames is the metric families a facility scrape exposes, in
// exposition order (sorted by name).
func scrapeNames(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	return names
}

// TestScrapeMetricNames pins the metric families one scrape of a fully
// assembled facility exposes — federation, read cache, compute plane
// and durable journal, with a gateway in front — so a family that is
// renamed or dropped fails here by name.
func TestScrapeMetricNames(t *testing.T) {
	_, _, hs := startGateway(t, facility.Options{
		Sites: []string{"near", "far"}, ReadCacheMemory: 8 * units.MiB,
		ComputeWorkers: 2, WALDir: t.TempDir(),
	}, gateway.Config{Tenants: []gateway.Tenant{{Name: "t", Token: "tok", Prefixes: []string{"/"}}}})
	c := newClient(t, hs, "tok")
	ctx := context.Background()
	if _, err := c.PutObject(ctx, "/sites/a", []byte("payload"), "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadObject(ctx, "/sites/a"); err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(`
		lsdf_cache_disk_hits_total
		lsdf_cache_evictions_total
		lsdf_cache_fill_bytes_total
		lsdf_cache_fill_ns
		lsdf_cache_fills_total
		lsdf_cache_invalidations_total
		lsdf_cache_mem_budget_bytes
		lsdf_cache_mem_hits_total
		lsdf_cache_mem_used_bytes
		lsdf_cache_misses_total
		lsdf_cache_neg_hits_total
		lsdf_dfs_blocks
		lsdf_dfs_bytes_read_total
		lsdf_dfs_bytes_written_total
		lsdf_dfs_capacity_bytes
		lsdf_dfs_files
		lsdf_dfs_live_nodes
		lsdf_dfs_local_reads_total
		lsdf_dfs_nodes
		lsdf_dfs_remote_reads_total
		lsdf_dfs_rereplicated_total
		lsdf_dfs_used_bytes
		lsdf_gateway_bytes_in_total
		lsdf_gateway_bytes_out_total
		lsdf_gateway_draining
		lsdf_gateway_in_flight
		lsdf_gateway_rejected_total
		lsdf_gateway_request_ns
		lsdf_gateway_requests_total
		lsdf_gateway_throttled_total
		lsdf_go_gc_total
		lsdf_go_goroutines
		lsdf_go_heap_bytes
		lsdf_meta_durable
		lsdf_meta_snapshot_bytes_total
		lsdf_meta_snapshots_total
		lsdf_meta_wal_errors_total
		lsdf_meta_wal_tail_records
		lsdf_mr_jobs
		lsdf_mr_live_workers
		lsdf_mr_map_tasks_total
		lsdf_mr_reduce_tasks_total
		lsdf_mr_remote_shuffle_bytes_total
		lsdf_mr_retries_total
		lsdf_mr_running_jobs
		lsdf_mr_running_slots
		lsdf_mr_shuffle_bytes_total
		lsdf_mr_spec_launched_total
		lsdf_mr_spec_won_total
		lsdf_mr_workers
		lsdf_repl_failures_total
		lsdf_repl_pending
		lsdf_repl_retries_total
		lsdf_repl_reverifies_total
		lsdf_repl_transfer_bytes_total
		lsdf_repl_transfers_total
	`)
	if got := scrapeNames(t, hs.URL); !slices.Equal(got, want) {
		t.Fatalf("scrape families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
