// Quickstart: assemble a facility, store experiment data with
// checksums and metadata, browse it, trigger a workflow by tagging,
// and read back the provenance — the paper's data lifecycle in forty
// lines of client code.
package main

import (
	"fmt"
	"log"
	"strings"

	lsdf "repro"
	"repro/internal/rules"
	"repro/internal/workflow"
)

func main() {
	fac, err := lsdf.New(lsdf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Close()

	// A workflow that measures any dataset it is pointed at.
	wf := workflow.New("measure")
	wf.MustAddNode("stat", workflow.ActorFunc(
		func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
			info, err := ctx.Layer.Stat(in["dataset.path"].(string))
			if err != nil {
				return nil, err
			}
			return workflow.Values{"bytes": fmt.Sprint(int64(info.Size))}, nil
		}))
	fac.AddRule(rules.Rule{Name: "measure", Event: rules.OnTag, Tag: "measure",
		Actions: rules.RunWorkflow(wf, nil, 0)})

	// Store two objects into the DDN mount.
	for i, content := range []string{"first acquisition", "second acquisition"} {
		path := fmt.Sprintf("/ddn/demo/run%d.dat", i)
		ds, err := fac.Store("demo", path, strings.NewReader(content),
			map[string]string{"run": fmt.Sprint(i)}, "raw")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("stored %-18s as %s (sha256 %s...)\n", path, ds.ID, ds.Checksum[:12])
	}

	// Browse what the facility holds.
	for _, ds := range fac.Query(lsdf.Query{PathPrefix: "/ddn/demo"}) {
		fmt.Printf("browse: %s %s tags=%v\n", ds.Path, ds.Size, ds.Tags)
	}

	// Tagging triggers the workflow; provenance lands on the dataset.
	if err := fac.Tag("/ddn/demo/run0.dat", "measure"); err != nil {
		log.Fatal(err)
	}
	for _, ds := range fac.Query(lsdf.Query{Tags: []string{"processed:measure"}}) {
		p := ds.Processings[0]
		fmt.Printf("provenance on %s: tool=%s results=%v\n", ds.ID, p.Tool, p.Results)
	}
}
