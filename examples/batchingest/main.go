// Batched ingest + asynchronous workflows: store 100 objects through
// the batched registration path (one metadata shard-lock round per
// shard), let each acknowledged registration trigger a segmentation
// workflow on the rule engine's executor, and use Flush as the
// barrier — the high-throughput counterpart to examples/quickstart.
package main

import (
	"fmt"
	"log"
	"strings"

	lsdf "repro"
	"repro/internal/ingest"
	"repro/internal/rules"
	"repro/internal/workflow"
)

func main() {
	fac, err := lsdf.New(lsdf.Options{AsyncWorkflows: 2, MetadataShards: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Close()

	wf := workflow.New("seg")
	wf.MustAddNode("count", workflow.ActorFunc(
		func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
			return workflow.Values{"cells": "42"}, nil
		}))
	fac.AddRule(rules.Rule{Name: "analyze", Event: rules.OnTag, Tag: "analyze",
		Actions: rules.RunWorkflow(wf, nil, 0)})

	objs := make([]ingest.Object, 100)
	for i := range objs {
		objs[i] = ingest.Object{
			Project: "zebrafish",
			Path:    fmt.Sprintf("/ddn/batch/%03d.raw", i),
			Data:    strings.NewReader(strings.Repeat("x", i+1)),
			Tags:    []string{"raw", "analyze"},
		}
	}
	for _, r := range fac.StoreBatch(objs) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}

	// StoreBatch returned with the workflows still running on the
	// executor; Flush is the barrier.
	before := len(fac.Query(lsdf.Query{Tags: []string{"processed:seg"}}))
	fac.Flush()
	after := len(fac.Query(lsdf.Query{Tags: []string{"processed:seg"}}))
	fmt.Printf("processed before flush: %d, after flush: %d\n", before, after)

	ds, _ := fac.Metadata().ByPath("/ddn/batch/050.raw")
	fmt.Printf("sample %s tags=%v provenance: tool=%s cells=%s\n",
		ds.ID, ds.Tags, ds.Processings[0].Tool, ds.Processings[0].Results["cells"])
}
