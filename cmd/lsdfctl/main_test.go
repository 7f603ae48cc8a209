package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/statedir"
	"repro/internal/tiering"
	"repro/internal/units"
)

// TestStateDirVerbs runs every lsdfctl verb through run on one state
// directory. Each call is its own invocation: it opens the directory,
// serves it, and closes it again, so what a later call sees was
// recovered from the directory.
func TestStateDirVerbs(t *testing.T) {
	tmp := t.TempDir()
	state := filepath.Join(tmp, "state")
	text := "the quick brown fox\nthe lazy dog\n"
	small := writeFile(t, tmp, "a.txt", []byte(text))
	big := writeFile(t, tmp, "big.raw", bytes.Repeat([]byte("0123456789abcdef"), 9<<20/16)) // over the 8 MiB JSON body cap
	o := options{state: state, cacheMem: 64, cacheDisk: 256}
	do := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, o, args); err != nil {
			t.Fatalf("lsdfctl %s: %v\n%s", strings.Join(args, " "), err, out.String())
		}
		return out.String()
	}
	expect := func(out string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Fatalf("output lacks %q:\n%s", w, out)
			}
		}
	}

	expect(do("ingest", "-project", "p", small, big), "/data/a.txt", "/data/big.raw", units.Bytes(9<<20).SI())
	expect(do("ingest", "-project", "q", "-dest", "/other/", small), "/other/a.txt")
	expect(do("ls", "/data"), "/data/a.txt", "/data/big.raw", "[raw]")
	do("tag", "/data/a.txt", "analyze")
	do("untag", "/data/big.raw", "raw")
	if out := do("query", "-tag", "analyze"); !strings.Contains(out, "/data/a.txt") || strings.Contains(out, "big.raw") {
		t.Fatalf("query -tag analyze:\n%s", out)
	}
	expect(do("query", "-project", "p"), "/data/a.txt", "/data/big.raw")
	expect(do("stat", "/data/a.txt"), "project:  p", "tags:     analyze,raw")

	expect(do("tier", "migrate", "/data/a.txt"), "migrated /data/a.txt")
	expect(do("tier"), "cold: 1 migrated")
	// The migrated object lists at its logical size, not its stub's.
	expect(do("ls", "/data"), units.Bytes(len(text)).SI()+" ")

	expect(do("replica", "add", "/data/big.raw", "m1"), "replicated /data/big.raw to site m1")
	expect(do("replica", "verify", "/data/big.raw"), "m1", "valid")
	expect(do("replica"), "sites: m1", "1 valid")

	expect(do("cache", "warm", "/data"), "warmed 2 objects under /data")
	expect(do("cache", "status"), "/data/a.txt")

	// A job reads the migrated input back through the tier and stores
	// its part files beside the data.
	expect(do("jobs", "submit", "-job", "wordcount", "-out", "/wc", "/data/a.txt"), "wordcount  done", "/wc/")
	expect(do("ls", "/wc"), "/wc/")
	if out := do("jobs", "status"); out != "" {
		t.Fatalf("a new invocation lists jobs of an earlier one:\n%s", out)
	}
	expect(do("export"), "/data/a.txt", "analyze")
	expect(do("metrics"), "lsdf_gateway_requests_total")
	do("traces", "-n", "3")
	traced := o
	traced.trace = true
	if err := run(&bytes.Buffer{}, traced, []string{"stat", "/data/a.txt"}); err != nil {
		t.Fatalf("lsdfctl -trace stat: %v", err)
	}

	// The tag was recovered from the journal, and the journal is the
	// only catalogue the directory holds.
	expect(do("query", "-tag", "analyze"), "/data/a.txt")
	var names []string
	entries, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"cache", "cold", "lock", "objects", "sites", "wal"}; !slices.Equal(names, want) {
		t.Fatalf("state directory holds %v, want %v", names, want)
	}
	meta, err := metadata.Open(metadata.Options{WALDir: filepath.Join(state, "wal")})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/data/a.txt", "/data/big.raw", "/other/a.txt"} {
		if _, ok := meta.ByPath(p); !ok {
			t.Errorf("the journal lacks %s", p)
		}
	}
	meta.Close()

	// A second process on the directory is turned away at once.
	d, err := statedir.Open(state, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := run(&bytes.Buffer{}, o, []string{"ls"}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("run beside an open directory: %v, want a lock error", err)
	}
}

// TestReplicaVerdictSurvivesReopen: a site file corrupted while the
// tools are closed is STALE to replica verify, which checks it against
// the digest journaled when replica add made it, and the next
// invocation still reports it stale — the journal, not a listing of the
// site, says what the site holds. A site file with no note is listed
// as unregistered.
func TestReplicaVerdictSurvivesReopen(t *testing.T) {
	tmp := t.TempDir()
	state := filepath.Join(tmp, "state")
	src := writeFile(t, tmp, "x.raw", bytes.Repeat([]byte("replica "), 100_000)) // three blocks
	o := options{state: state}
	do := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, o, args); err != nil {
			t.Fatalf("lsdfctl %s: %v\n%s", strings.Join(args, " "), err, out.String())
		}
		return out.String()
	}
	expect := func(out string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Fatalf("output lacks %q:\n%s", w, out)
			}
		}
	}
	do("ingest", "-project", "p", src)
	expect(do("replica", "add", "/data/x.raw", "m1"), "replicated /data/x.raw to site m1")
	expect(do("replica", "status"), "m1=valid", "1 valid, 0 stale")

	site := filepath.Join(state, "sites", "m1", "data", "x.raw")
	b, err := os.ReadFile(site)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(site, b, 0o644); err != nil {
		t.Fatal(err)
	}
	expect(do("replica", "verify", "/data/x.raw"), "m1", "STALE")
	expect(do("replica", "status"), "m1=stale", "0 valid, 1 stale")

	if err := os.WriteFile(filepath.Join(state, "sites", "m1", "data", "stray.raw"), []byte("no note"), 0o644); err != nil {
		t.Fatal(err)
	}
	expect(do("replica"), "/data/stray.raw", "m1=unregistered", "1 unregistered")

	do("replica", "add", "/data/x.raw", "m1")
	expect(do("replica", "verify", "/data/x.raw"), "valid (sha256")
	expect(do("replica", "status"), "m1=valid", "1 valid, 0 stale")
}

// TestTierPinSurvivesReopen: a pin is journaled in the object's row,
// so the invocation after the one that pinned it refuses to migrate it,
// until an unpin.
func TestTierPinSurvivesReopen(t *testing.T) {
	tmp := t.TempDir()
	o := options{state: filepath.Join(tmp, "state")}
	do := func(args ...string) (string, error) {
		var out bytes.Buffer
		err := run(&out, o, args)
		return out.String(), err
	}
	if _, err := do("ingest", "-project", "p", writeFile(t, tmp, "p.raw", []byte("pinned bytes"))); err != nil {
		t.Fatal(err)
	}
	if out, err := do("tier", "pin", "/data/p.raw"); err != nil || !strings.Contains(out, "pinned /data/p.raw") {
		t.Fatalf("tier pin: %q, %v", out, err)
	}
	if _, err := do("tier", "migrate", "/data/p.raw"); !errors.Is(err, tiering.ErrPinned) {
		t.Fatalf("tier migrate after a reopen: %v, want ErrPinned", err)
	}
	if out, _ := do("tier"); !strings.Contains(out, "(1 pinned)") || !strings.Contains(out, "[pinned]") {
		t.Fatalf("tier status:\n%s", out)
	}
	if _, err := do("tier", "unpin", "/data/p.raw"); err != nil {
		t.Fatal(err)
	}
	if out, err := do("tier", "migrate", "/data/p.raw"); err != nil || !strings.Contains(out, "migrated /data/p.raw") {
		t.Fatalf("tier migrate after unpin: %q, %v", out, err)
	}
}

func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}
