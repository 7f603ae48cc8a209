// DNA sequencing (slide 13): a synthetic genome is sampled into
// error-bearing short reads stored on the Hadoop filesystem; k-mer
// counting and coverage profiling run as real MapReduce jobs on the
// analysis cluster — the 2011 Hadoop-genomics pattern.
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"

	lsdf "repro"
	"repro/internal/mapreduce"
	"repro/internal/units"
	"repro/internal/workloads"
)

func main() {
	fac, err := lsdf.New(lsdf.Options{DFSNodes: 8, DFSBlockSize: 64 * units.KiB})
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Close()

	genome := workloads.GenerateGenome(100_000, 2011)
	reads := workloads.GenerateReads(genome, workloads.ReadsConfig{
		ReadLen: 100, Coverage: 15, ErrorRate: 0.01, Seed: 7,
	})
	if err := fac.Cluster().WriteFile("/dna/reads", "", reads); err != nil {
		log.Fatal(err)
	}
	nReads := 15 * len(genome) / 100
	fmt.Printf("genome: %d bp; reads: %d x 100 bp (15x coverage, 1%% error)\n",
		len(genome), nReads)

	// Job 1: k-mer spectrum.
	res, err := fac.RunJob(mapreduce.Config{
		Name:   "kmer-spectrum",
		Inputs: []string{"/dna/reads"}, OutputDir: "/dna/kmers",
		Mapper: workloads.KMerMapper(21), Reducer: mapreduce.SumReducer(),
		Combiner: mapreduce.SumReducer(), NumReducers: 4, Locality: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	out, err := mapreduce.ReadTextOutput(fac.Cluster(), res.OutputFiles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k-mer job: %d map tasks, %d distinct 21-mers, %v wall\n",
		res.Counters.MapTasks, res.Counters.ReduceGroups, res.Duration.Round(1e6))

	// Error k-mers appear once; genomic k-mers ~15 times. Show the
	// spectrum's two modes.
	hist := map[int]int{}
	for _, vals := range out {
		n, _ := strconv.Atoi(vals[0])
		hist[n]++
	}
	counts := make([]int, 0, len(hist))
	for c := range hist {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	fmt.Println("k-mer multiplicity histogram (count: how many k-mers):")
	for _, c := range counts {
		if c <= 3 || hist[c] > 50 {
			fmt.Printf("  %3dx: %d\n", c, hist[c])
		}
	}

	// Job 2: coverage profile, on the memory-bounded shuffle — a
	// 32 KiB per-task budget spills sorted runs to the DFS and the
	// streaming reducer folds counts straight off the merge.
	cres, err := fac.RunJob(mapreduce.Config{
		Name:   "coverage",
		Inputs: []string{"/dna/reads"}, OutputDir: "/dna/cov",
		Mapper: workloads.CoverageMapper(10_000), StreamReducer: workloads.StreamSumReducer,
		Combiner: mapreduce.SumReducer(), Locality: true,
		ShuffleMemory: 32 * units.KiB,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage job spilled %d sorted runs (%d bytes) and merged %d streams\n",
		cres.Counters.SpillRuns, cres.Counters.SpillBytes, cres.Counters.MergeStreams)
	cov, err := mapreduce.ReadTextOutput(fac.Cluster(), cres.OutputFiles)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("coverage per 10 kb bin (want ~15x everywhere):")
	bins := make([]string, 0, len(cov))
	for bin := range cov {
		bins = append(bins, bin)
	}
	sort.Strings(bins)
	for _, bin := range bins {
		n, _ := strconv.Atoi(cov[bin][0])
		fmt.Printf("  bin %s: %.1fx\n", bin, float64(n)/10_000)
	}
	rep := fac.ClusterReport()
	fmt.Printf("cluster after jobs: %d files, %s stored, %d local / %d remote block reads\n",
		rep.Files, rep.Used, rep.LocalReads, rep.RemoteReads)
}
