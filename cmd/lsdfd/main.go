// Command lsdfd is the facility's network front door: one process
// that assembles a full LSDF (federated namespace, sharded metadata
// with optional WAL durability, multi-site replication, read cache,
// analysis cluster) and serves it to remote communities over
// HTTP/JSON with per-tenant auth, rate limiting and admission
// control.
//
// Quickstart (single tenant):
//
//	lsdfd -addr :7420 -tenant bio -token s3cret -data /var/lsdf/objects -wal /var/lsdf/wal
//	lsdfctl -server http://127.0.0.1:7420 -token s3cret ls /data
//
// Multi-tenant: -tenants FILE points at a JSON array of tenant
// records (see internal/gateway.Tenant):
//
//	[{"name":"bio","token":"...","prefixes":["/data/bio"],"rps":200,"max_in_flight":32},
//	 {"name":"climate","token":"...","prefixes":["/data/climate"]}]
//
// SIGTERM/SIGINT drain gracefully: in-flight requests (including
// streaming reads) finish, new ones get 503 + Retry-After. With -wal
// set, every ingest acknowledged over HTTP is journaled before the
// response, so even kill -9 loses nothing that was acked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/adal"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/units"
)

func main() {
	var (
		addr        = flag.String("addr", ":7420", "listen address")
		tenantsFile = flag.String("tenants", "", "JSON file with tenant records (overrides -tenant/-token)")
		tenantName  = flag.String("tenant", "lsdf", "single-tenant mode: community name")
		token       = flag.String("token", "", "single-tenant mode: bearer token (required unless -tenants)")
		dataDir     = flag.String("data", "", "serve a persistent local directory at /data (default: in-memory only)")
		walDir      = flag.String("wal", "", "metadata WAL directory (durable acks; created if missing)")
		sites       = flag.String("sites", "", "comma-separated federation site names (enables /sites)")
		cacheMem    = flag.Int("cache-mem-mib", 0, "read cache memory budget in MiB (needs -sites)")
		cacheDisk   = flag.Int("cache-disk-mib", 0, "read cache disk budget in MiB (needs -sites)")
		cacheDir    = flag.String("cache-dir", "", "read cache disk directory (created if missing)")
		shards      = flag.Int("shards", 0, "metadata shard count (default 16)")
		dfsNodes    = flag.Int("dfs-nodes", 8, "analysis cluster datanodes")
		computeN    = flag.Int("compute-workers", 0, "distributed MapReduce: in-process compute workers (0 = each job runs in-process)")
		computeS    = flag.Int("compute-slots", 0, "distributed MapReduce: task slots per worker (default 2)")
		computeAddr = flag.String("compute-addr", "", "distributed MapReduce: master control-plane listen address for external lsdf-worker processes (default loopback ephemeral; implies -compute-workers if unset)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		debugAddr   = flag.String("debug-addr", "", "operator debug listener: pprof, /metrics, /v1/debug/traces (keep off tenant networks)")
	)
	flag.Parse()
	cfg := daemonConfig{
		addr: *addr, tenantsFile: *tenantsFile, tenantName: *tenantName, token: *token,
		dataDir: *dataDir, walDir: *walDir, sites: *sites,
		cacheMem: *cacheMem, cacheDisk: *cacheDisk, cacheDir: *cacheDir,
		shards: *shards, dfsNodes: *dfsNodes,
		computeWorkers: *computeN, computeSlots: *computeS, computeAddr: *computeAddr,
		drainTimeout: *drain, debugAddr: *debugAddr,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lsdfd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr           string
	tenantsFile    string
	tenantName     string
	token          string
	dataDir        string
	walDir         string
	sites          string
	cacheMem       int
	cacheDisk      int
	cacheDir       string
	shards         int
	dfsNodes       int
	computeWorkers int
	computeSlots   int
	computeAddr    string
	drainTimeout   time.Duration
	debugAddr      string
}

func run(c daemonConfig) error {
	tenants, err := loadTenants(c.tenantsFile, c.tenantName, c.token)
	if err != nil {
		return err
	}

	opts := facility.Options{
		DFSNodes:       c.dfsNodes,
		MetadataShards: c.shards,
		WALDir:         c.walDir,
		AsyncEvents:    true,
		ComputeWorkers: c.computeWorkers,
		ComputeSlots:   c.computeSlots,
		ComputeAddr:    c.computeAddr,
	}
	// -compute-addr alone still means "run the distributed plane": a
	// master with no local workers, waiting for external lsdf-worker
	// processes to register.
	if c.computeAddr != "" && opts.ComputeWorkers == 0 {
		opts.ComputeWorkers = 1
	}
	if c.walDir != "" {
		if err := os.MkdirAll(c.walDir, 0o755); err != nil {
			return err
		}
	}
	if c.sites != "" {
		opts.Sites = splitList(c.sites)
		opts.ReadCacheMemory = units.Bytes(c.cacheMem) * units.MiB
		opts.ReadCacheDisk = units.Bytes(c.cacheDisk) * units.MiB
		if c.cacheDir != "" {
			if err := os.MkdirAll(c.cacheDir, 0o755); err != nil {
				return err
			}
			opts.ReadCacheDir = c.cacheDir
		}
	}
	fac, err := facility.New(opts)
	if err != nil {
		return err
	}
	defer fac.Close()
	if fac.Compute != nil {
		log.Printf("lsdfd: compute master on %s (%d in-process workers)", fac.Compute.URL(), opts.ComputeWorkers)
	}

	if c.dataDir != "" {
		if err := os.MkdirAll(c.dataDir, 0o755); err != nil {
			return err
		}
		local, err := adal.NewLocalFS("data", c.dataDir)
		if err != nil {
			return err
		}
		if err := fac.Layer.Mount("/data", local); err != nil {
			return err
		}
	}

	srv, err := gateway.ForFacility(fac, gateway.Config{Tenants: tenants})
	if err != nil {
		return err
	}

	// The operator debug plane rides its own listener: pprof and the
	// raw obs handlers carry no tenant auth, so they never share the
	// front door's address.
	if c.debugAddr != "" {
		dln, err := net.Listen("tcp", c.debugAddr)
		if err != nil {
			return err
		}
		defer dln.Close()
		log.Printf("lsdfd: debug listener (pprof, /metrics, /v1/debug/traces) on %s", dln.Addr())
		go func() {
			_ = http.Serve(dln, obs.DebugHandler(fac.Obs, fac.Tracer))
		}()
	}

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	log.Printf("lsdfd: serving %d tenant(s) on %s (wal=%q sites=%q)", len(tenants), ln.Addr(), c.walDir, c.sites)
	httpSrv := &http.Server{ReadHeaderTimeout: 10 * time.Second}
	err = srv.ServeDraining(httpSrv, ln, c.drainTimeout, syscall.SIGTERM, os.Interrupt)
	if err == nil {
		log.Printf("lsdfd: drained, shutting down")
	}
	return err
}

func loadTenants(file, name, token string) ([]gateway.Tenant, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var tenants []gateway.Tenant
		if err := json.Unmarshal(data, &tenants); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		if len(tenants) == 0 {
			return nil, fmt.Errorf("%s: no tenants", file)
		}
		return tenants, nil
	}
	if token == "" {
		return nil, fmt.Errorf("either -tenants FILE or -token is required")
	}
	// Single-tenant quickstart: full namespace access.
	return []gateway.Tenant{{Name: name, Token: token, Prefixes: []string{"/"}}}, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
