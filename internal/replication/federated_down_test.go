package replication

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
)

// dialCountingBackend counts Open calls — a dial on a site that the
// health gate already knows is down is the regression under test.
type dialCountingBackend struct {
	adal.Backend
	opens atomic.Int64
}

func (b *dialCountingBackend) Open(path string) (io.ReadCloser, error) {
	b.opens.Add(1)
	return b.Backend.Open(path)
}

// TestOpenSkipsDownSitesWithoutDial: once a site is marked down,
// federated reads must stop dialing its backend entirely — the old
// candidate loop re-attempted known-down sites on every Open, paying
// a failing dial plus unbounded catalogue/Ensure churn per read. On a
// durable store the outage costs one journal record, not one per read.
func TestOpenSkipsDownSitesWithoutDial(t *testing.T) {
	meta, err := metadata.Open(metadata.Options{WALDir: "/wal", FS: durafs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(meta.Close)
	backends := map[string]*dialCountingBackend{
		"kit":    {Backend: adal.NewMemFS("kit")},
		"gridka": {Backend: adal.NewMemFS("gridka")},
		"desy":   {Backend: adal.NewMemFS("desy")},
	}
	sites := []*Site{
		NewSite("kit", backends["kit"], 0),
		NewSite("gridka", backends["gridka"], 1),
		NewSite("desy", backends["desy"], 2),
	}
	cat := catView{meta, "/sites"}
	eng, err := NewEngine(Config{
		Sites: sites, MinReplicas: 3, Meta: meta, MountPrefix: "/sites",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	fb := NewFederated("fed", eng)

	const path = "/exp/run1"
	data := bytes.Repeat([]byte("down-site "), 512)
	writeObject(t, fb, path, data)
	eng.Wait()
	if got := cat.CountValid(path); got != 3 {
		t.Fatalf("valid replicas = %d, want 3", got)
	}

	// Count the stale transitions the outage generates for the dead
	// site: the fix bounds them to one, not one per read.
	var staleEvents atomic.Int64
	defer meta.Subscribe(func(ev metadata.Event) {
		if ev.Type == metadata.EventReplica && ev.Site == "kit" && ev.Placement == "stale" {
			staleEvents.Add(1)
		}
	})()

	sites[0].SetDown(true) // kit, distance 0: the site every read prefers
	dialsBefore := backends["kit"].opens.Load()
	recordsBefore := meta.WALTailRecords()

	const readers, reads = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if got := readAll(t, fb, path); !bytes.Equal(got, data) {
					t.Errorf("read mismatch during outage")
					return
				}
			}
		}()
	}
	wg.Wait()

	if dials := backends["kit"].opens.Load() - dialsBefore; dials != 0 {
		t.Fatalf("down site dialed %d times during outage, want 0", dials)
	}
	if fb.FedStats().Failovers == 0 {
		t.Fatal("failover counter never moved")
	}
	if st, ok := cat.Get(path, "kit"); !ok || st == Valid {
		t.Fatalf("dead replica state = %v, want stale", st)
	}
	if n := staleEvents.Load(); n != 1 {
		t.Fatalf("stale transitions for the dead site = %d across %d reads, want 1", n, readers*reads)
	}
	if n := meta.WALTailRecords() - recordsBefore; n != 1 {
		t.Fatalf("the outage journaled %d records across %d reads, want the one stale note", n, readers*reads)
	}
	// Re-replication still triggered from the read path: the object
	// stays at target on the survivors.
	eng.Wait()
	if got := cat.CountValid(path); got < 2 {
		t.Fatalf("valid replicas after outage = %d, want ≥ 2", got)
	}
}
