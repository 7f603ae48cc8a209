// KATRIN (slide 14): the neutrino-mass experiment is one of the
// communities onboarding in 2011. Spectrometer runs stream into the
// facility through the ingest pipeline; a rule archives every run to
// the object store; a chained MapReduce pipeline builds the detector
// pixel histogram and the energy spectrum near the tritium endpoint.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	lsdf "repro"
	"repro/internal/ingest"
	"repro/internal/mapreduce"
	"repro/internal/rules"
	"repro/internal/units"
	"repro/internal/workloads"
)

func main() {
	fac, err := lsdf.New(lsdf.Options{DFSNodes: 8, DFSBlockSize: 32 * units.KiB})
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Close()

	// Archival-quality policy: every KATRIN run is replicated on create.
	fac.AddRule(rules.Rule{
		Name:      "archive-katrin",
		Event:     rules.OnCreate,
		Condition: rules.ProjectIs("katrin"),
		Actions:   []rules.Action{rules.Replicate("/archive")},
	})

	// Ingest five runs of 20k events each.
	const runs, eventsPerRun = 5, 20_000
	objs := make([]*ingest.Object, runs)
	for r := range objs {
		objs[r] = &ingest.Object{
			Project: "katrin",
			Path:    fmt.Sprintf("/ibm/katrin/run%03d.evt", r),
			Data:    bytes.NewReader(workloads.KatrinRun(eventsPerRun, int64(r))),
			Basic:   map[string]string{"run": fmt.Sprint(r), "detector": "fpd"},
			Tags:    []string{"raw", "katrin"},
		}
	}
	stats, err := fac.Ingest(context.Background(), &ingest.SliceProducer{Objects: objs}, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d runs (%s) at %s\n", stats.Objects, stats.Bytes.SI(), stats.Throughput())
	fmt.Printf("archived copies: %d\n", len(fac.Query(lsdf.Query{Tags: []string{"replicated"}})))

	// Stage the event data onto the analysis cluster and run the
	// histogram jobs.
	var all bytes.Buffer
	for r := 0; r < runs; r++ {
		rd, err := fac.Open(fmt.Sprintf("/ibm/katrin/run%03d.evt", r))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := all.ReadFrom(rd); err != nil {
			log.Fatal(err)
		}
		rd.Close()
	}
	if err := fac.Cluster().WriteFile("/katrin/events", "", all.Bytes()); err != nil {
		log.Fatal(err)
	}

	pixel, err := fac.RunJob(mapreduce.Config{
		Name:   "pixel-histogram",
		Inputs: []string{"/katrin/events"}, OutputDir: "/katrin/pixels",
		Mapper: workloads.PixelHistogramMapper, Reducer: mapreduce.SumReducer(),
		Combiner: mapreduce.SumReducer(), NumReducers: 4, Locality: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	spec, err := fac.RunJob(mapreduce.Config{
		Name:   "energy-spectrum",
		Inputs: []string{"/katrin/events"}, OutputDir: "/katrin/spectrum",
		Mapper: workloads.EnergyBandMapper, Reducer: mapreduce.SumReducer(),
		Combiner: mapreduce.SumReducer(), Locality: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	pixels, _ := mapreduce.ReadTextOutput(fac.Cluster(), pixel.OutputFiles)
	fmt.Printf("pixel histogram: %d of 148 detector pixels hit (%v wall)\n",
		len(pixels), pixel.Duration.Round(1e6))

	bands, _ := mapreduce.ReadTextOutput(fac.Cluster(), spec.OutputFiles)
	keys := make([]string, 0, len(bands))
	for k := range bands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("energy spectrum near the tritium endpoint (100 eV bands):")
	for _, k := range keys {
		n, _ := strconv.Atoi(bands[k][0])
		bar := n * 40 / (runs * eventsPerRun / len(bands) * 2)
		if bar < 0 {
			bar = 0
		}
		fmt.Printf("  %s eV  %6d  %s\n", k[len("band-"):], n, strings.Repeat("#", bar))
	}
}
