package metadata_test

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/adal"
	"repro/internal/metadata"
	"repro/internal/metadata/durafs"
	"repro/internal/rules"
)

// TestNoEventForRefusedMutation: a mutation the journal refuses
// (ErrWALFailed) was never acknowledged, so no subscriber — and no rule,
// even one whose firings run on the engine's executor — may act on it.
// That holds for a replica note the fail-stop log refuses too.
func TestNoEventForRefusedMutation(t *testing.T) {
	fs := durafs.NewFault(durafs.NewMem(), nil)
	meta, err := metadata.Open(metadata.Options{WALDir: "/wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer meta.Close()
	ok, err := meta.Create("p", "/ok", 1, "", nil)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []string // "subscriber:" or "rule:" + path
	note := func(who, path string) {
		mu.Lock()
		seen = append(seen, who+path)
		mu.Unlock()
	}
	defer meta.Subscribe(func(ev metadata.Event) { note("subscriber:", ev.Dataset.Path) })()
	layer := adal.NewLayer()
	if err := layer.Mount("/", adal.NewMemFS("store")); err != nil {
		t.Fatal(err)
	}
	engine := rules.NewEngine(layer, meta, 2)
	defer engine.Close()
	for _, on := range []rules.On{rules.OnCreate, rules.OnTag} {
		engine.Add(rules.Rule{Name: on.String(), Event: on, Actions: []rules.Action{rules.ActionFunc{
			Label: "note", Fn: func(_ *rules.Context, ds metadata.Dataset) error {
				note("rule:", ds.Path)
				return nil
			}}}})
	}

	// The plumbing works: an acknowledged create reaches both.
	if _, err := meta.Create("p", "/good", 1, "", nil); err != nil {
		t.Fatal(err)
	}
	meta.Flush()
	mu.Lock()
	if len(seen) != 2 {
		t.Fatalf("acknowledged create seen as %v, want a subscriber and a rule", seen)
	}
	seen = nil
	mu.Unlock()

	fs.FailSyncs(1)
	if _, err := meta.Create("p", "/bad", 1, "", nil); !errors.Is(err, metadata.ErrWALFailed) {
		t.Fatalf("Create: err = %v, want ErrWALFailed", err)
	}
	res := meta.CreateBatch([]metadata.CreateSpec{{Project: "p", Path: "/batch/a", Tags: []string{"raw"}}, {Project: "p", Path: "/batch/b"}})
	for _, r := range res {
		if !errors.Is(r.Err, metadata.ErrWALFailed) {
			t.Fatalf("CreateBatch: err = %v, want ErrWALFailed", r.Err)
		}
	}
	if err := meta.Tag(ok.ID, "analyze"); !errors.Is(err, metadata.ErrWALFailed) {
		t.Fatalf("Tag: err = %v, want ErrWALFailed", err)
	}
	meta.AddReplica("/ok", "m1", adal.Digest{Size: 1, Sum: "0a"})
	if meta.WALErrors() == 0 {
		t.Fatal("the refused replica note was not counted on WALErrors")
	}
	meta.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 0 {
		t.Fatalf("refused mutations were acted on: %v", seen)
	}
}
