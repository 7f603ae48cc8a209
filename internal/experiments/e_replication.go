package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/facility"
	"repro/internal/ingest"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// E14MultiSiteReplication exercises the multi-site layer the paper's
// remote communities imply (AAA's "Any Data, Any Time, Anywhere"):
// three sites, MinReplicas=2, a full site outage in the middle of
// sustained ingest — client reads must not fail (failover serves
// them), and after revival the catalog must converge back to the
// replication target without duplicate transfers. A fluid-model
// section reruns the wide-area arithmetic at facility scale: fanning
// a day's ingest out to a second site over the paper's 10 GE, intact
// and degraded.
func E14MultiSiteReplication() (*Table, error) {
	const (
		objSize    = 32 * units.KiB
		preObjects = 48 // replicated before the outage
		outObjects = 24 // ingested during the outage
		readers    = 8
	)
	f, err := facility.New(facility.Options{
		Sites:       []string{"kit", "gridka", "desy"},
		MinReplicas: 2,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	mkObjs := func(lo, n int) []*ingest.Object {
		objs := make([]*ingest.Object, n)
		for i := range objs {
			objs[i] = &ingest.Object{
				Project: "aaa",
				Path:    fmt.Sprintf("/sites/e14/obj%04d", lo+i),
				Data:    bytes.NewReader(bytes.Repeat([]byte{byte(lo + i)}, int(objSize))),
			}
		}
		return objs
	}
	pipe := ingest.New(f.Layer, f.Meta, ingest.Config{Workers: 4, BatchSize: 8})
	if _, err := pipe.Run(context.Background(), &ingest.SliceProducer{Objects: mkObjs(0, preObjects)}); err != nil {
		return nil, err
	}
	f.Replicator.Wait() // every pre-outage object at MinReplicas

	// Outage: the nearest site dies. Readers hammer the replicated
	// objects while ingest keeps running; every byte must arrive.
	f.FedSites[0].SetDown(true)
	var reads, failedReads, badBytes atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := fmt.Sprintf("/sites/e14/obj%04d", (r+i*readers)%preObjects)
				reads.Add(1)
				rd, err := f.Layer.Open(path)
				if err != nil {
					failedReads.Add(1)
					continue
				}
				n, err := io.Copy(io.Discard, rd)
				rd.Close()
				if err != nil {
					failedReads.Add(1)
				} else if n != int64(objSize) {
					badBytes.Add(1)
				}
			}
		}(r)
	}
	outageStart := time.Now()
	if _, err := pipe.Run(context.Background(), &ingest.SliceProducer{Objects: mkObjs(preObjects, outObjects)}); err != nil {
		return nil, err
	}
	f.Replicator.Wait()
	close(stop)
	wg.Wait()
	outageDur := time.Since(outageStart)

	// Revival: one reconcile sweep restores MinReplicas everywhere;
	// surviving bytes on the revived site re-verify instead of
	// re-transferring.
	f.FedSites[0].SetDown(false)
	f.Replicator.Reconcile()
	f.Replicator.Wait()

	total := preObjects + outObjects
	converged := 0
	for i := 0; i < total; i++ {
		if len(f.Meta.ValidSites(fmt.Sprintf("/sites/e14/obj%04d", i))) >= 2 {
			converged++
		}
	}
	st := f.Replicator.Stats()
	fs := f.Federation.FedStats()

	// Fluid-model WAN fan-out at facility scale: slide 5's DAQ rates
	// mean ~2 TB/day/community; replicate a 100 TB campaign to a
	// second site over the paper's dedicated 10 GE, then over a
	// degraded 1 GE reroute, 8 parallel streams each.
	wanDays := func(linkRate units.Rate) float64 {
		eng := sim.New(7)
		net := netsim.New(eng)
		net.AddDuplexLink("kit", "gridka", linkRate, 15*time.Millisecond)
		var worst time.Duration
		const streams = 8
		for i := 0; i < streams; i++ {
			if _, err := net.StartFlow(netsim.FlowSpec{
				Src: "kit", Dst: "gridka",
				Bytes:      100 * units.TB / streams,
				Efficiency: 0.9, // managed-transfer sustained efficiency
				OnComplete: func(fl *netsim.Flow) {
					if fl.Elapsed() > worst {
						worst = fl.Elapsed()
					}
				},
			}); err != nil {
				panic(err)
			}
		}
		eng.Run()
		return worst.Hours() / 24
	}
	full := wanDays(units.Gbps(10))
	degraded := wanDays(units.Gbps(1))

	return &Table{
		ID:         "E14",
		Title:      "Multi-site replication: outage failover + convergence (AAA)",
		PaperClaim: "remote communities need their data served from somewhere, always — geo-redundant replicas with transparent failover",
		Columns:    []string{"metric", "value"},
		Rows: [][]string{
			{"objects (pre-outage / during)", fmt.Sprintf("%d / %d x %s", preObjects, outObjects, objSize.SI())},
			{"reads during site outage", fmt.Sprint(reads.Load())},
			{"failed reads / short reads", fmt.Sprintf("%d / %d", failedReads.Load(), badBytes.Load())},
			{"open-time / mid-stream failovers", fmt.Sprintf("%d / %d", fs.Failovers, fs.MidStream)},
			{"outage wall time", outageDur.Round(time.Millisecond).String()},
			{"paths at >= 2 valid after revive", fmt.Sprintf("%d / %d", converged, total)},
			{"transfers / singleflight-suppressed", fmt.Sprintf("%d / %d", st.Transfers, st.DedupSkips)},
			{"checksum re-verifies (no copy)", fmt.Sprint(st.Reverifies)},
			{"100 TB to 2nd site, 10 GE WAN", fmt.Sprintf("%.1f days", full)},
			{"same, degraded to 1 GE", fmt.Sprintf("%.1f days", degraded)},
		},
		Notes: "reads resolve to the nearest valid replica and fail over transparently; " +
			"failed sites' replicas go stale and re-replicate to surviving sites; revival " +
			"re-verifies surviving bytes by checksum instead of copying. The WAN rows are " +
			"the netsim fluid model (max-min fair, 90% managed-transfer efficiency).",
	}, nil
}
