package main

// The benchmark's fixed vocabulary: workload names, metric names,
// units, directions and bounds. BENCHMARK.json at the repo root states
// the same facts for the driver; TestSpecMatchesBenchmarkJSON keeps
// the two from drifting.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name    string
	Why     string
	Clients int
	// TracedOps is how many seeded ops the traced pass replays. It is
	// sized so the pass takes a few seconds: a read-hot op walks its
	// ladder in ~2 ms, a compute-wc op in ~300 ms.
	TracedOps int
}

var workloads = []workloadDef{
	{"read-hot", "hot set fits the read cache, so HTTP framing and gateway auth/limits/copy are nearly all of the time", 2, 200},
	{"read-cold", "data is 8x the read cache, so SHA-256-verified fills, evictions, federation and the O(offset) range skip dominate", 2, 60},
	{"ingest-durable", "batched POST /v1/ingest on a real WAL dir: JSON decode, sha256, WAL frames, group commit and fsync do the work", 2, 60},
	{"mixed-rw", "reads beside PUTs and DELETEs on one stack: replication fan-out, bus invalidation and eviction compete with the hot set", 2, 200},
	{"compute-wc", "wordcount through /v1/jobs on the distributed plane: master scheduling, heartbeat dispatch over mrpc, shuffle, DFS commit", 1, 12},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one named metric. Bound is the share of the baseline's
// value by which an end-to-end metric may worsen (0 for per-layer
// metrics, which carry no bound). Moves states, for a per-layer
// metric, which end-to-end metric on which workload it should move;
// On lists the workloads that measure it (nil = all).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
	On     []string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the metrics a user of the facility feels. fail_ratio
// and recovered_ratio are end-to-end facts too, but they are 0 and 1
// on a healthy tree and the driver's contract wants metrics that are
// never 0: they travel as attempted/failed/correct in the result line
// and as client.fail_ratio / metadata.recovered_ratio below.
//
// A metric has one bound for all workloads, so the least steady
// workload sets it (ten-seed spreads in README.md): peak RSS repeats
// within 3 % everywhere and throughput within 14 %; CPU per op and the
// latencies reach 15-16 % on ingest-durable and p95_ms 25 % on
// compute-wc in this sandbox's noisy hours, so they have the widest
// bound the driver allows. All but peak_rss_mb are provisional: they
// are this box's noise, not a judgement of what a regression is.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var (
	onReads   = []string{"read-hot", "read-cold", "mixed-rw"}
	onCold    = []string{"read-cold"}
	onSites   = []string{"read-hot", "read-cold", "ingest-durable", "mixed-rw"}
	onIngest  = []string{"ingest-durable"}
	onMixed   = []string{"mixed-rw"}
	onCompute = []string{"compute-wc"}
)

var perLayer = []metricDef{
	// Read ladder: each rung is the same seeded read timed one layer
	// further down; self time is the rung minus the rung below it.
	{Name: "client.get.total_us", Unit: "us", Better: "lower", Moves: "p50_ms on read-hot, read-cold, mixed-rw", On: onReads},
	{Name: "client.http.self_us", Unit: "us", Better: "lower", Moves: "p50_ms, ops_per_s on read-hot", On: onSites},
	{Name: "gateway.get.self_us", Unit: "us", Better: "lower", Moves: "p50_ms, ops_per_s on read-hot", On: onReads},
	{Name: "adal.open.self_us", Unit: "us", Better: "lower", Moves: "p50_ms on read-hot (small)", On: onReads},
	{Name: "readcache.open.self_us", Unit: "us", Better: "lower", Moves: "p50_ms on read-cold", On: onReads},
	{Name: "replication.open.self_us", Unit: "us", Better: "lower", Moves: "p50_ms on read-cold", On: onCold},
	{Name: "site.read.self_us", Unit: "us", Better: "lower", Moves: "p50_ms on read-cold", On: onCold},
	{Name: "replication.failover.total_us", Unit: "us", Better: "lower", Moves: "none (no site is down in any workload)", On: onCold},
	{Name: "gateway.range.tail_over_head", Unit: "ratio", Better: "lower", Moves: "p50_ms on read-cold", On: onCold},

	// Read counters: deltas of the modules' public Stats() around the
	// measured rounds.
	{Name: "readcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "p50_ms on read-cold, mixed-rw", On: onReads},
	{Name: "readcache.fill_bytes_per_byte_served", Unit: "ratio", Better: "lower", Moves: "p50_ms, cpu_ms_per_op on read-cold", On: onReads},
	{Name: "readcache.evictions_per_kop", Unit: "count", Better: "lower", Moves: "p50_ms on read-cold, mixed-rw", On: onReads},
	{Name: "readcache.invalidations_per_kop", Unit: "count", Better: "lower", Moves: "p50_ms on mixed-rw", On: onReads},
	{Name: "readcache.dedups", Unit: "count", Better: "higher", Moves: "cpu_ms_per_op on read-cold", On: onReads},
	{Name: "replication.transfers_per_put", Unit: "ratio", Better: "lower", Moves: "ops_per_s, p95_ms on mixed-rw, ingest-durable", On: []string{"ingest-durable", "mixed-rw"}},
	{Name: "replication.transfer_mb", Unit: "MB", Better: "lower", Moves: "cpu_ms_per_op on mixed-rw, ingest-durable", On: onSites},
	{Name: "replication.drain_s", Unit: "s", Better: "lower", Moves: "ops_per_s, p95_ms on mixed-rw, ingest-durable", On: onSites},
	{Name: "replication.failovers", Unit: "count", Better: "lower", Moves: "none (must be 0)", On: onSites},
	{Name: "gateway.rejected", Unit: "count", Better: "lower", Moves: "none (must be 0)"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: "none (scrapes are outside the rounds)"},

	// Ingest ladder.
	{Name: "client.ingest.total_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-durable", On: onIngest},
	{Name: "gateway.ingest.self_us", Unit: "us", Better: "lower", Moves: "p50_ms, cpu_ms_per_op on ingest-durable", On: onIngest},
	{Name: "adal.create.total_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-durable", On: onIngest},
	{Name: "metadata.create_batch.total_us", Unit: "us", Better: "lower", Moves: "p50_ms, ops_per_s on ingest-durable", On: onIngest},
	{Name: "metadata.create_batch.self_us", Unit: "us", Better: "lower", Moves: "cpu_ms_per_op on ingest-durable", On: onIngest},
	{Name: "metadata.wal.fsync_us", Unit: "us", Better: "lower", Moves: "p50_ms, ops_per_s on ingest-durable", On: onIngest},
	{Name: "metadata.wal.fsyncs_per_batch", Unit: "count", Better: "lower", Moves: "p50_ms, ops_per_s on ingest-durable", On: onIngest},
	{Name: "metadata.wal.write_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-durable", On: onIngest},
	{Name: "metadata.wal.bytes_per_dataset", Unit: "B", Better: "lower", Moves: "p50_ms, cpu_ms_per_op on ingest-durable", On: onIngest},
	{Name: "metadata.wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "p50_ms on ingest-durable", On: onIngest},
	{Name: "metadata.durability_tax", Unit: "ratio", Better: "lower", Moves: "p50_ms, ops_per_s on ingest-durable", On: onIngest},
	{Name: "metadata.snapshots", Unit: "count", Better: "lower", Moves: "p95_ms on ingest-durable", On: onIngest},
	{Name: "metadata.recover_s", Unit: "s", Better: "lower", Moves: "none (reopen is outside the rounds)", On: onIngest},
	{Name: "metadata.recovered_ratio", Unit: "ratio", Better: "higher", Moves: "end-to-end: must be 1", On: onIngest},
	{Name: "metadata.crash_recovered_ratio", Unit: "ratio", Better: "higher", Moves: "none (must be 1)", On: onIngest},
	{Name: "client.put.total_us", Unit: "us", Better: "lower", Moves: "p95_ms on mixed-rw", On: onMixed},
	{Name: "gateway.put.self_us", Unit: "us", Better: "lower", Moves: "p95_ms, cpu_ms_per_op on mixed-rw", On: onMixed},
	{Name: "adal.put.total_us", Unit: "us", Better: "lower", Moves: "p95_ms on mixed-rw", On: onMixed},

	// Compute ladder.
	{Name: "client.job.total_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "gateway.job.self_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.distributed.total_ms", Unit: "ms", Better: "lower", Moves: "p50_ms, ops_per_s on compute-wc", On: onCompute},
	{Name: "mapreduce.engine.total_ms", Unit: "ms", Better: "lower", Moves: "the data-bound floor of p50_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.distributed_over_engine", Unit: "ratio", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.tasks_per_job", Unit: "count", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.ms_per_task", Unit: "ms", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.shuffle_bytes_per_job", Unit: "B", Better: "lower", Moves: "cpu_ms_per_op on compute-wc", On: onCompute},
	{Name: "mapreduce.remote_shuffle_bytes_per_job", Unit: "B", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.retries", Unit: "count", Better: "lower", Moves: "p95_ms on compute-wc", On: onCompute},
	{Name: "mapreduce.spec_launched", Unit: "count", Better: "lower", Moves: "p95_ms, cpu_ms_per_op on compute-wc", On: onCompute},
	{Name: "mrpc.rtt_us", Unit: "us", Better: "lower", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "dfs.read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "dfs.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "p50_ms on compute-wc", On: onCompute},
	{Name: "dfs.local_read_ratio", Unit: "ratio", Better: "higher", Moves: "p50_ms on compute-wc", On: onCompute},

	// Process and the benchmark's own books.
	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower", Moves: "cpu_ms_per_op, p95_ms on every workload"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op, p95_ms on every workload"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "p95_ms on every workload"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower", Moves: "peak_rss_mb on every workload"},
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower", Moves: "end-to-end: must be 0"},
	{Name: "ladder.residual_ratio", Unit: "ratio", Better: "lower", Moves: "none (how far the rungs' self times miss the top rung)"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none (traced top rung over untraced p50)"},
}

const (
	defaultSeed    = 1
	defaultSeconds = 20
	rounds         = 5
	warmupShare    = 0.05 // warm-up = 5 % of the measured time, at least 50 ms
	flushPolicy    = "fsync per WAL group commit (GroupCommitInterval 0), real fsync on the sandbox's disk"
)
