package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/dfs"
	"repro/internal/mrpc"
)

// ErrNoNodes is returned when the cluster has no live datanodes.
var ErrNoNodes = errors.New("mapreduce: cluster has no live datanodes")

// Run executes a job to completion inside the caller's process, on the
// same scheduler that runs the distributed plane: a master without a
// listener whose registry holds this one job, and one worker per live
// datanode with SlotsPerNode slots, calling the master directly. There
// are no sockets, so there is no shuffle server either — reducers read
// the maps' run files from the DFS. The lease is an hour: a goroutine
// does not die alone, and a whole-process stall must not look like it.
func Run(cluster *dfs.Cluster, cfg Config) (*Result, error) {
	if cfg.Mapper == nil {
		return nil, errors.New("mapreduce: job needs a Mapper")
	}
	if cfg.Reducer != nil && cfg.StreamReducer != nil {
		return nil, errors.New("mapreduce: set either Reducer or StreamReducer, not both")
	}
	nodes := cluster.DataNodes()
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	cfg = cfg.withDefaults()
	reg := Registry{cfg.Name: func(mrpc.JobSpec) (Config, error) { return cfg, nil }}
	m, err := newMaster(MasterConfig{Cluster: cluster, Registry: reg, Lease: time.Hour})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	j, err := m.Submit(mrpc.JobSpec{Name: cfg.Name, Inputs: cfg.Inputs, OutputDir: cfg.OutputDir}, "")
	if err != nil {
		return nil, err
	}
	for _, node := range nodes {
		w, err := startWorker(WorkerConfig{
			ID: node, Store: m.store, Node: node, Slots: cfg.SlotsPerNode, Registry: reg,
		}, m, false)
		if err != nil {
			return nil, err
		}
		defer w.Close()
	}
	return j.Wait()
}

// ReadTextOutput collects a finished job's part files into a map from
// key to the values emitted for it, in emission order. It is a test
// and example convenience for jobs with text keys/values.
func ReadTextOutput(cluster *dfs.Cluster, files []string) (map[string][]string, error) {
	out := make(map[string][]string)
	for _, f := range files {
		data, err := cluster.ReadFile(f, "")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			k, v, ok := strings.Cut(line, "\t")
			if !ok {
				return nil, fmt.Errorf("mapreduce: malformed output line %q in %s", line, f)
			}
			out[k] = append(out[k], v)
		}
	}
	return out, nil
}
