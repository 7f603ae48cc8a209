package mapreduce

import (
	"errors"
	"fmt"

	"repro/internal/dfs"
)

// Map-only jobs and job chaining — the Hadoop idioms 2011 pipelines
// were built from (Crossbow chains alignment into SNP calling; ETL
// stages run map-only).

// ErrEmptyChain is returned for a chain without stages.
var ErrEmptyChain = errors.New("mapreduce: empty job chain")

// RunChain executes jobs in order, feeding each stage's output files
// as the next stage's inputs. The first stage keeps its configured
// Inputs; later stages have theirs replaced. It returns every stage's
// result.
func RunChain(cluster *dfs.Cluster, stages []Config) ([]*Result, error) {
	if len(stages) == 0 {
		return nil, ErrEmptyChain
	}
	results := make([]*Result, 0, len(stages))
	var prevOutputs []string
	for i, cfg := range stages {
		if i > 0 {
			cfg.Inputs = prevOutputs
		}
		res, err := Run(cluster, cfg)
		if err != nil {
			return results, fmt.Errorf("mapreduce: chain stage %d (%s): %w", i, cfg.Name, err)
		}
		results = append(results, res)
		prevOutputs = res.OutputFiles
	}
	return results, nil
}

func trimDir(dir string) string {
	for len(dir) > 0 && dir[len(dir)-1] == '/' {
		dir = dir[:len(dir)-1]
	}
	return dir
}
