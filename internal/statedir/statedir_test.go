package statedir

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/metadata"
)

// TestOpenRefusesMetadataDump: a directory that still holds the JSON
// catalogue older tools wrote is refused by name, not opened with its
// objects unregistered.
func TestOpenRefusesMetadataDump(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "metadata.json")
	if err := os.WriteFile(dump, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 0); err == nil || !strings.Contains(err.Error(), dump) {
		t.Fatalf("Open beside %s: %v, want an error naming it", dump, err)
	}
	// The failed Open released its lock.
	os.Remove(dump)
	d, err := Open(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// TestOpenRefusesStubEraDirectory: a directory whose journal holds
// datasets but no placement row, and whose objects/ holds objects — the
// layout of a build that kept tier placement in stubs — is refused with
// an error naming an object, not opened with every object unlisted.
func TestOpenRefusesStubEraDirectory(t *testing.T) {
	dir := t.TempDir()
	meta, err := metadata.Open(metadata.Options{WALDir: filepath.Join(dir, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := meta.Create("p", "/data/a.raw", 2, "", nil); err != nil {
		t.Fatal(err)
	}
	meta.Close()
	obj := filepath.Join(dir, "objects", "data", "a.raw")
	if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 0); err == nil || !strings.Contains(err.Error(), obj) {
		t.Fatalf("Open of a stub-era directory: %v, want an error naming %s", err, obj)
	}
}

// TestLockHeldUntilClose: the lock keeps a second Open out while the
// directory is open and is released by Close.
func TestLockHeldUntilClose(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 0); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("second Open: %v, want a lock error", err)
	}
	d.Close()
	if d, err = Open(dir, 0, 0); err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	d.Close()
}

// TestServedJobs: the served gateway runs jobs over the namespace and
// answers an unknown template with 404 before running anything.
func TestServedJobs(t *testing.T) {
	d, err := Open(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.PutObject(ctx, "/in/a.txt", []byte("one two two\n"), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, gateway.JobRequest{Job: "nosuch", Inputs: []string{"/in/a.txt"}, OutputDir: "/out"}); !client.IsNotFound(err) {
		t.Fatalf("unknown template: %v, want 404", err)
	}
	st, err := c.SubmitJob(ctx, gateway.JobRequest{Job: "wordcount", Inputs: []string{"/in/a.txt"}, OutputDir: "/out"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.WaitJob(ctx, st.ID, 0); err != nil || st.State != gateway.JobDone || len(st.OutputFiles) == 0 {
		t.Fatalf("wordcount: %+v %v", st, err)
	}
	out, err := c.ReadObject(ctx, st.OutputFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := string(out); !strings.Contains(got, "two\t2") || !strings.Contains(got, "one\t1") {
		t.Fatalf("part file:\n%s", got)
	}
}
