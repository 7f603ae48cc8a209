package lsdf_test

import (
	"fmt"
	"strings"

	lsdf "repro"
	"repro/internal/mapreduce"
	"repro/internal/rules"
	"repro/internal/workflow"
)

// Example shows the paper's core lifecycle: store with checksum and
// metadata, tag, and query.
func Example() {
	fac, err := lsdf.New(lsdf.Options{})
	if err != nil {
		panic(err)
	}
	defer fac.Close()

	ds, err := fac.Store("zebrafish", "/ddn/itg/img1.raw",
		strings.NewReader("frame bytes"), map[string]string{"well": "A1"}, "raw")
	if err != nil {
		panic(err)
	}
	fmt.Println("registered:", ds.Project, ds.Path, ds.Size)

	hits := fac.Query(lsdf.Query{Project: "zebrafish", Tags: []string{"raw"}})
	fmt.Println("query hits:", len(hits))
	// Output:
	// registered: zebrafish /ddn/itg/img1.raw 11B
	// query hits: 1
}

// ExampleFacility_Tag shows tag-triggered workflow execution with
// provenance (slide 12).
func ExampleFacility_Tag() {
	fac, err := lsdf.New(lsdf.Options{})
	if err != nil {
		panic(err)
	}
	defer fac.Close()

	wf := workflow.New("measure")
	wf.MustAddNode("stat", workflow.ActorFunc(
		func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
			info, err := ctx.Layer.Stat(in["dataset.path"].(string))
			if err != nil {
				return nil, err
			}
			return workflow.Values{"bytes": fmt.Sprint(int64(info.Size))}, nil
		}))
	fac.AddTrigger(workflow.Trigger{Tag: "measure", Workflow: wf})

	if _, err := fac.Store("demo", "/ddn/run.dat", strings.NewReader("12345"), nil); err != nil {
		panic(err)
	}
	if err := fac.Tag("/ddn/run.dat", "measure"); err != nil {
		panic(err)
	}
	ds := fac.Query(lsdf.Query{Tags: []string{"processed:measure"}})[0]
	fmt.Println("tool:", ds.Processings[0].Tool)
	fmt.Println("bytes:", ds.Processings[0].Results["bytes"])
	// Output:
	// tool: workflow:measure
	// bytes: 5
}

// ExampleFacility_AddRule shows iRODS-style policy automation
// (slide 14): replicate every object of a project on creation.
func ExampleFacility_AddRule() {
	fac, err := lsdf.New(lsdf.Options{})
	if err != nil {
		panic(err)
	}
	defer fac.Close()

	fac.AddRule(rules.Rule{
		Name:      "archive-katrin",
		Event:     rules.OnCreate,
		Condition: rules.ProjectIs("katrin"),
		Actions:   []rules.Action{rules.Replicate("/archive")},
	})
	if _, err := fac.Store("katrin", "/ibm/run1.evt", strings.NewReader("events"), nil); err != nil {
		panic(err)
	}
	info, err := fac.Layer().Stat("/archive/ibm/run1.evt")
	if err != nil {
		panic(err)
	}
	fmt.Println("replica:", info.Path, info.Size)
	// Output:
	// replica: /archive/ibm/run1.evt 6B
}

// ExampleFacility_RunJob shows MapReduce on the analysis cluster
// (slide 11): wordcount over a file stored in the Hadoop filesystem.
func ExampleFacility_RunJob() {
	fac, err := lsdf.New(lsdf.Options{DFSBlockSize: 256})
	if err != nil {
		panic(err)
	}
	defer fac.Close()

	corpus := strings.Repeat("embryo fish\n", 100)
	if err := fac.Cluster().WriteFile("/corpus", "", []byte(corpus)); err != nil {
		panic(err)
	}
	res, err := fac.RunJob(mapreduce.Config{
		Inputs: []string{"/corpus"}, OutputDir: "/out",
		Mapper: mapreduce.MapperFunc(func(_ string, v []byte, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(string(v)) {
				emit(w, []byte("1"))
			}
			return nil
		}),
		Reducer:  mapreduce.SumReducer(),
		Locality: true,
	})
	if err != nil {
		panic(err)
	}
	out, err := mapreduce.ReadTextOutput(fac.Cluster(), res.OutputFiles)
	if err != nil {
		panic(err)
	}
	fmt.Println("embryo:", out["embryo"][0])
	fmt.Println("fish:", out["fish"][0])
	// Output:
	// embryo: 100
	// fish: 100
}
