// Zebrafish: the paper's flagship workload (slides 5 and 12). A
// high-throughput-microscopy campaign streams through the ingest
// pipeline; a policy rule archives every raw frame; tagging a plate
// in the DataBrowser triggers the segmentation workflow; results and
// provenance land back in the metadata DB.
package main

import (
	"context"
	"fmt"
	"log"

	lsdf "repro"
	"repro/internal/rules"
	"repro/internal/units"
	"repro/internal/workflow"
	"repro/internal/workloads"
)

func main() {
	fac, err := lsdf.New(lsdf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Close()

	// Policy: every raw zebrafish frame is replicated to the archive
	// mount on creation (the iRODS-style rule of slide 14).
	fac.AddRule(rules.Rule{
		Name:      "archive-raw-frames",
		Event:     rules.OnCreate,
		Condition: rules.ProjectIs("zebrafish"),
		Actions:   []rules.Action{rules.Replicate("/archive")},
	})

	// Workflow: read a frame, "segment" it, write the result object.
	wf := workflow.New("segmentation")
	wf.MustAddNode("segment", workflow.ActorFunc(
		func(ctx *workflow.Context, in workflow.Values) (workflow.Values, error) {
			src := in["dataset.path"].(string)
			r, err := ctx.Layer.Open(src)
			if err != nil {
				return nil, err
			}
			defer r.Close()
			// Count bright voxels as a stand-in for cell segmentation.
			buf := make([]byte, 64*1024)
			bright := 0
			for {
				n, err := r.Read(buf)
				for _, b := range buf[:n] {
					if b > 200 {
						bright++
					}
				}
				if err != nil {
					break
				}
			}
			out := src + ".cells"
			w, err := ctx.Layer.Create(out)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "bright_voxels=%d", bright)
			w.Close()
			return workflow.Values{
				"output.path": out,
				"cells":       fmt.Sprint(bright / 1000),
			}, nil
		}))
	fac.AddRule(rules.Rule{Name: "segment", Event: rules.OnTag, Tag: "segment",
		Actions: rules.RunWorkflow(wf, nil, 0)})

	// One plate of the campaign: 96 wells x 24 images x 2 channels at
	// a laptop-friendly frame size (the paper's frames are 4 MB).
	cfg := workloads.DefaultMicroscopy()
	cfg.Plates = 1
	cfg.WellsPerPlate = 12
	cfg.ImagesPerFish = 6
	cfg.ImageSize = 64 * units.KiB
	stats, err := fac.Ingest(context.Background(), workloads.NewMicroscopy(cfg), 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d frames, %s at %s\n",
		stats.Objects, stats.Bytes.SI(), stats.Throughput())

	archived := fac.Query(lsdf.Query{Tags: []string{"replicated"}})
	fmt.Printf("rule engine archived %d frames to /archive\n", len(archived))

	// An analyst tags one well's frames for segmentation.
	wellFrames := fac.Query(lsdf.Query{
		Project: "zebrafish",
		Basic:   map[string]string{"well": "03"},
	})
	for _, ds := range wellFrames {
		if err := fac.Tag(ds.Path, "segment"); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("tagged %d frames of well 03 for segmentation\n", len(wellFrames))

	done := fac.Query(lsdf.Query{Tags: []string{"processed:segmentation"}})
	fmt.Printf("workflow processed %d frames; example provenance:\n", len(done))
	p := done[0].Processings[0]
	fmt.Printf("  %s: tool=%s cells=%s output=%v\n",
		done[0].ID, p.Tool, p.Results["cells"], p.Outputs)
}
