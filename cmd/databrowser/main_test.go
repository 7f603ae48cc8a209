package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/statedir"
	"repro/internal/units"
)

// TestStateDirVerbs runs list, preview and tag through run on a state
// directory whose object was migrated to the cold tier: the browser
// sees the object's logical size and real bytes, never its stub.
func TestStateDirVerbs(t *testing.T) {
	state := t.TempDir()
	data := bytes.Repeat([]byte("lsdf-bytes;"), 64)
	d, err := statedir.Open(state, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutObject(context.Background(), "/data/img.raw", data, "zebrafish", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := d.Tier.Migrate("/data/img.raw"); err != nil {
		t.Fatal(err)
	}
	d.Close()

	do := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, state, "", "", args); err != nil {
			t.Fatalf("databrowser %s: %v", strings.Join(args, " "), err)
		}
		return out.String()
	}
	list := do("list", "/data")
	if want := units.Bytes(len(data)).SI() + " "; !strings.Contains(list, want) || !strings.Contains(list, "zebrafish [raw]") {
		t.Fatalf("list of the migrated object:\n%s\nwant size %q and its dataset", list, want)
	}
	if got, want := do("preview", "/data/img.raw"), fmt.Sprintf("%q\n", data[:256]); got != want {
		t.Fatalf("preview of the migrated object: %s, want %s", got, want)
	}
	do("tag", "/data/img.raw", "analyze")
	if list := do("list", "/data"); !strings.Contains(list, "[analyze,raw]") {
		t.Fatalf("tag not recovered by the next invocation:\n%s", list)
	}

	entries, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"cold", "lock", "objects", "wal"}; !slices.Equal(names, want) {
		t.Fatalf("state directory holds %v, want %v", names, want)
	}

	// A second process on the directory is turned away at once.
	d, err = statedir.Open(state, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := run(&bytes.Buffer{}, state, "", "", []string{"list"}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("run beside an open directory: %v, want a lock error", err)
	}
}
