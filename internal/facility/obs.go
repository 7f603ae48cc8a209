package facility

// registerObs points the facility's metrics registry at every
// subsystem's existing counters. The samplers read at scrape time —
// CounterFunc/GaugeFunc wrap the atomics and locked snapshots the
// subsystems already maintain — so the facility's hot paths pay
// nothing for facility-wide exposition.
func (f *Facility) registerObs() {
	reg := f.Obs
	reg.RegisterRuntimeMetrics()

	// Analysis cluster (HDFS model). Each sampler snapshots the
	// cluster report; scrapes are rare enough that the repeated
	// report cost does not matter.
	reg.GaugeFunc("lsdf_dfs_nodes", "Configured datanodes.", func() int64 { return int64(f.DFS.Report().Nodes) })
	reg.GaugeFunc("lsdf_dfs_live_nodes", "Datanodes currently alive.", func() int64 { return int64(f.DFS.Report().LiveNodes) })
	reg.GaugeFunc("lsdf_dfs_capacity_bytes", "Total datanode capacity.", func() int64 { return int64(f.DFS.Report().Capacity) })
	reg.GaugeFunc("lsdf_dfs_used_bytes", "Bytes stored across datanodes.", func() int64 { return int64(f.DFS.Report().Used) })
	reg.GaugeFunc("lsdf_dfs_files", "Files in the namespace.", func() int64 { return int64(f.DFS.Report().Files) })
	reg.GaugeFunc("lsdf_dfs_blocks", "Blocks in the namespace.", func() int64 { return int64(f.DFS.Report().Blocks) })
	reg.CounterFunc("lsdf_dfs_local_reads_total", "Block reads served by a replica on the reader's node.", func() int64 { return int64(f.DFS.Report().LocalReads) })
	reg.CounterFunc("lsdf_dfs_remote_reads_total", "Block reads that crossed the network.", func() int64 { return int64(f.DFS.Report().RemoteReads) })
	reg.CounterFunc("lsdf_dfs_bytes_read_total", "Bytes read from the cluster.", func() int64 { return int64(f.DFS.Report().BytesRead) })
	reg.CounterFunc("lsdf_dfs_bytes_written_total", "Bytes written to the cluster.", func() int64 { return int64(f.DFS.Report().BytesWritten) })
	reg.CounterFunc("lsdf_dfs_rereplicated_total", "Blocks re-replicated after node failures.", func() int64 { return int64(f.DFS.Report().ReReplicated) })

	// Metadata durability (per-shard WAL + snapshots).
	reg.GaugeFunc("lsdf_meta_durable", "1 when mutations are journaled to a WAL.", func() int64 {
		if f.Meta.Durable() {
			return 1
		}
		return 0
	})
	reg.CounterFunc("lsdf_meta_snapshots_total", "Compacted WAL snapshots written since open.", f.Meta.Snapshots)
	reg.CounterFunc("lsdf_meta_snapshot_bytes_total", "Bytes those snapshots wrote: the cost of compaction.", f.Meta.SnapshotBytes)
	reg.GaugeFunc("lsdf_meta_wal_tail_records", "WAL records no snapshot covers yet: what a restart would replay.", f.Meta.WALTailRecords)
	reg.CounterFunc("lsdf_meta_wal_errors_total", "WAL append/sync failures.", f.Meta.WALErrors)

	// Hot-set read cache (nil unless enabled). The fill-latency
	// histogram lsdf_cache_fill_ns is registered by the cache itself
	// through readcache.Config.Obs.
	if c := f.ReadCache; c != nil {
		reg.CounterFunc("lsdf_cache_mem_hits_total", "Reads served from the memory tier.", func() int64 { return int64(c.Stats().MemHits) })
		reg.CounterFunc("lsdf_cache_disk_hits_total", "Reads served from the disk tier.", func() int64 { return int64(c.Stats().DiskHits) })
		reg.CounterFunc("lsdf_cache_misses_total", "Reads that fell through to the federation.", func() int64 { return int64(c.Stats().Misses) })
		reg.CounterFunc("lsdf_cache_neg_hits_total", "Lookups answered not-found from the negative set.", func() int64 { return int64(c.Stats().NegHits) })
		reg.CounterFunc("lsdf_cache_fills_total", "Completed miss fills.", func() int64 { return int64(c.Stats().Fills) })
		reg.CounterFunc("lsdf_cache_fill_bytes_total", "Bytes admitted by fills.", func() int64 { return int64(c.Stats().FillBytes) })
		reg.CounterFunc("lsdf_cache_evictions_total", "Entries evicted for budget.", func() int64 { return int64(c.Stats().Evictions) })
		reg.CounterFunc("lsdf_cache_invalidations_total", "Entries dropped by bus invalidation.", func() int64 { return int64(c.Stats().Invalidations) })
		reg.GaugeFunc("lsdf_cache_mem_used_bytes", "Memory-tier bytes in use.", func() int64 { return int64(c.Stats().MemUsed) })
		reg.GaugeFunc("lsdf_cache_mem_budget_bytes", "Memory-tier byte budget.", func() int64 { return int64(c.Stats().MemBudget) })
	}

	// Multi-site replication engine (nil unless Options.Sites).
	if e := f.Replicator; e != nil {
		reg.CounterFunc("lsdf_repl_transfers_total", "Completed inter-site copies.", func() int64 { return int64(e.Stats().Transfers) })
		reg.CounterFunc("lsdf_repl_transfer_bytes_total", "Bytes moved between sites.", func() int64 { return int64(e.Stats().TransferBytes) })
		reg.CounterFunc("lsdf_repl_retries_total", "Replication attempts retried.", func() int64 { return int64(e.Stats().Retries) })
		reg.CounterFunc("lsdf_repl_failures_total", "Replication jobs that exhausted retries.", func() int64 { return int64(e.Stats().Failures) })
		reg.CounterFunc("lsdf_repl_reverifies_total", "Replicas revalidated by checksum alone.", func() int64 { return int64(e.Stats().Reverifies) })
		reg.GaugeFunc("lsdf_repl_pending", "Replication jobs queued or in flight.", func() int64 { return int64(e.Stats().Pending) })
	}

	// Distributed compute plane (nil unless Options.ComputeWorkers).
	if m := f.Compute; m != nil {
		reg.GaugeFunc("lsdf_mr_workers", "Workers ever registered with the master.", func() int64 { return int64(m.Stats().Workers) })
		reg.GaugeFunc("lsdf_mr_live_workers", "Workers within their heartbeat lease.", func() int64 { return int64(m.Stats().LiveWorkers) })
		reg.GaugeFunc("lsdf_mr_jobs", "Jobs ever submitted.", func() int64 { return int64(m.Stats().Jobs) })
		reg.GaugeFunc("lsdf_mr_running_jobs", "Jobs not yet settled.", func() int64 { return int64(m.Stats().RunningJobs) })
		reg.GaugeFunc("lsdf_mr_running_slots", "Task attempts holding worker slots.", func() int64 { return int64(m.Stats().RunningSlots) })
		reg.CounterFunc("lsdf_mr_map_tasks_total", "Map attempts committed.", func() int64 { return m.Stats().MapTasks })
		reg.CounterFunc("lsdf_mr_reduce_tasks_total", "Reduce attempts committed.", func() int64 { return m.Stats().ReduceTasks })
		reg.CounterFunc("lsdf_mr_retries_total", "Task attempts re-run after failure or loss.", func() int64 { return m.Stats().Retries })
		reg.CounterFunc("lsdf_mr_spec_launched_total", "Speculative backup attempts launched.", func() int64 { return m.Stats().SpecLaunched })
		reg.CounterFunc("lsdf_mr_spec_won_total", "Speculative attempts that committed first.", func() int64 { return m.Stats().SpecWon })
		reg.CounterFunc("lsdf_mr_shuffle_bytes_total", "Shuffle bytes merged by reducers.", func() int64 { return m.Stats().ShuffleBytes })
		reg.CounterFunc("lsdf_mr_remote_shuffle_bytes_total", "Shuffle bytes fetched over worker HTTP.", func() int64 { return m.Stats().RemoteBytes })
	}
}
