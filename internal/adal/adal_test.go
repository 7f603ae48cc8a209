package adal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dfs"
	"repro/internal/metadata/durafs"
	"repro/internal/units"
)

func writeAll(t *testing.T, b Backend, path, data string) {
	t.Helper()
	w, err := b.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, b Backend, path string) string {
	t.Helper()
	r, err := b.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// backendContract exercises the Backend interface invariants shared by
// all implementations.
func backendContract(t *testing.T, b Backend) {
	t.Helper()
	writeAll(t, b, "/a/one", "payload-1")
	writeAll(t, b, "/a/two", "payload-two")
	writeAll(t, b, "/b/three", "3")

	if got := readAll(t, b, "/a/one"); got != "payload-1" {
		t.Fatalf("%s: read = %q", b.Name(), got)
	}
	info, err := b.Stat("/a/two")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 11 {
		t.Fatalf("%s: stat size = %d", b.Name(), info.Size)
	}
	list, err := b.List("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Path != "/a/one" || list[1].Path != "/a/two" {
		t.Fatalf("%s: list = %+v", b.Name(), list)
	}
	if _, err := b.Stat("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: a directory is not an object: stat err = %v", b.Name(), err)
	}
	if _, err := b.Create("/a/one"); !errors.Is(err, ErrExists) {
		t.Fatalf("%s: duplicate create err = %v", b.Name(), err)
	}

	// No object is visible before its bytes are committed.
	w, err := b.Create("/a/open")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "in flight")
	if _, err := b.Stat("/a/open"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: stat of an open writer's object err = %v", b.Name(), err)
	}
	if _, err := b.Open("/a/open"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: open of an open writer's object err = %v", b.Name(), err)
	}
	if list, _ := b.List("/a"); len(list) != 2 {
		t.Fatalf("%s: list with a writer open = %+v", b.Name(), list)
	}
	if _, err := b.Create("/a/open"); !errors.Is(err, ErrExists) {
		t.Fatalf("%s: create beside an open writer err = %v", b.Name(), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, b, "/a/open"); got != "in flight" {
		t.Fatalf("%s: committed object reads %q", b.Name(), got)
	}
	if _, err := b.Open("/ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: open missing err = %v", b.Name(), err)
	}
	if err := b.Remove("/a/one"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open("/a/one"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: open removed err = %v", b.Name(), err)
	}
	if err := b.Remove("/a/one"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%s: double remove err = %v", b.Name(), err)
	}
}

func TestMemFSContract(t *testing.T) {
	backendContract(t, NewMemFS("mem"))
}

func TestLocalFSContract(t *testing.T) {
	fs, err := NewLocalFS("posix", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backendContract(t, fs)
}

func TestDFSBackendContract(t *testing.T) {
	c := dfs.NewCluster(dfs.Config{BlockSize: 1024, Replication: 2, Seed: 1})
	for i := 0; i < 4; i++ {
		if _, err := c.AddDataNode(fmt.Sprintf("dn%d", i), "r0", units.GiB); err != nil {
			t.Fatal(err)
		}
	}
	backendContract(t, NewDFSBackend("hdfs", c, "dn0"))
}

func TestLocalFSTraversalBlocked(t *testing.T) {
	fs, err := NewLocalFS("posix", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Clean("/../etc/passwd") = /etc/passwd inside root; real escape
	// is impossible because resolution is anchored. Verify the
	// resolved path stays under root by writing and reading it back.
	writeAll(t, fs, "/../../escape", "x")
	if got := readAll(t, fs, "/escape"); got != "x" {
		t.Fatal("traversal was not anchored to root")
	}
}

// TestTempFiles: a temp file a crashed writer left in a LocalFS root is
// removed when the store opens and never listed, and a name carrying
// the temp marker is refused on both constructors.
func TestTempFiles(t *testing.T) {
	root := t.TempDir()
	leftover := filepath.Join(root, "run", "obj"+tempMarker+"7")
	if err := os.MkdirAll(filepath.Dir(leftover), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	local, err := NewLocalFS("posix", root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover temp file survived NewLocalFS: %v", err)
	}
	writeAll(t, local, "/run/obj", "whole")
	if list, err := local.List("/"); err != nil || len(list) != 1 || list[0].Path != "/run/obj" {
		t.Fatalf("list = %+v, err %v", list, err)
	}
	for _, b := range []Backend{local, NewMemFS("mem")} {
		if _, err := b.Create("/run/obj" + tempMarker + "1"); !errors.Is(err, ErrDenied) {
			t.Fatalf("%s: create of a temp name err = %v, want ErrDenied", b.Name(), err)
		}
	}
}

// TestObjectCrashPointSweep runs sixteen Create/Write/Close rounds on a store
// over a fault-injecting filesystem with torn writes, crashing at every
// I/O op up to twice the count of a clean run. After each crash the
// store is reopened on what survived: every object whose Close returned
// nil reads back whole, every visible object is one that was written and
// is whole, and no temp name is listed or left behind.
func TestObjectCrashPointSweep(t *testing.T) {
	const rounds = 16
	payload := func(i int) string { return strings.Repeat(fmt.Sprintf("object %02d. ", i), 50*(i+1)) }
	run := func(fault *durafs.Fault) map[string]bool {
		b := NewFS("sweep", fault, "")
		acked := map[string]bool{}
		for i := 0; i < rounds; i++ {
			p := fmt.Sprintf("/run%d/obj%02d", i%3, i)
			w, err := b.Create(p)
			if err != nil {
				continue
			}
			data := payload(i)
			for len(data) > 0 { // several writes: a crash may tear any of them
				k := min(len(data), 700)
				w.Write([]byte(data[:k]))
				data = data[k:]
			}
			if w.Close() == nil {
				acked[p] = true
			}
		}
		return acked
	}
	probe := durafs.NewFault(durafs.NewMem(), nil)
	if len(run(probe)) != rounds {
		t.Fatal("clean run did not commit every object")
	}
	for n := int64(1); n <= 2*probe.Ops(); n++ {
		fault := durafs.NewFault(durafs.NewMem(), rand.New(rand.NewSource(n)))
		fault.CrashAfterOps(n)
		acked := run(fault)
		b := NewFS("reopened", fault.Inner(), "")
		list, err := b.List("/")
		if err != nil {
			t.Fatal(err)
		}
		visible := map[string]bool{}
		for _, info := range list {
			var i int
			if _, err := fmt.Sscanf(path.Base(info.Path), "obj%02d", &i); err != nil {
				t.Fatalf("crash at op %d: %s is visible and was never written", n, info.Path)
			}
			if got := readAll(t, b, info.Path); got != payload(i) {
				t.Fatalf("crash at op %d: %s is visible torn: %d of %d bytes", n, info.Path, len(got), len(payload(i)))
			}
			visible[info.Path] = true
		}
		for p := range acked {
			if !visible[p] {
				t.Fatalf("crash at op %d: acked %s is gone", n, p)
			}
		}
		left, _ := fault.Inner().Walk("/")
		for _, f := range left {
			if strings.Contains(f.Name, tempMarker) {
				t.Fatalf("crash at op %d: temp file %s survived the reopen", n, f.Name)
			}
		}
	}
}

func TestLayerFederation(t *testing.T) {
	layer := NewLayer()
	mem1 := NewMemFS("arrayA")
	mem2 := NewMemFS("arrayB")
	if err := layer.Mount("/ddn", mem1); err != nil {
		t.Fatal(err)
	}
	if err := layer.Mount("/ibm", mem2); err != nil {
		t.Fatal(err)
	}
	if err := layer.Mount("/ddn", mem2); err == nil {
		t.Fatal("duplicate mount accepted")
	}

	w, err := layer.Create("/ddn/exp/file1")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "hello")
	w.Close()

	// The object lives in mem1 under the backend-relative path.
	if got := readAll(t, mem1, "/exp/file1"); got != "hello" {
		t.Fatalf("backend content = %q", got)
	}
	// And resolves through the layer under the federated path.
	r, err := layer.Open("/ddn/exp/file1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(r)
	if string(data) != "hello" {
		t.Fatalf("layer read = %q", data)
	}
	if _, err := layer.Open("/nfs/x"); !errors.Is(err, ErrNoMount) {
		t.Fatalf("unmounted err = %v", err)
	}
	infos, err := layer.List("/ddn/exp")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != "/ddn/exp/file1" {
		t.Fatalf("federated list = %+v", infos)
	}
	st, err := layer.Stat("/ddn/exp/file1")
	if err != nil || st.Path != "/ddn/exp/file1" || st.Size != 5 {
		t.Fatalf("stat = %+v err=%v", st, err)
	}
}

func TestLayerLongestPrefixWins(t *testing.T) {
	layer := NewLayer()
	outer := NewMemFS("outer")
	inner := NewMemFS("inner")
	if err := layer.Mount("/data", outer); err != nil {
		t.Fatal(err)
	}
	if err := layer.Mount("/data/archive", inner); err != nil {
		t.Fatal(err)
	}
	b, rel, err := layer.Resolve("/data/archive/2011/x")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "inner" || rel != "/2011/x" {
		t.Fatalf("resolve = %s %q", b.Name(), rel)
	}
	b, rel, err = layer.Resolve("/data/hot/x")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "outer" || rel != "/hot/x" {
		t.Fatalf("resolve = %s %q", b.Name(), rel)
	}
}

func TestWriteChecksummed(t *testing.T) {
	layer := NewLayer()
	if err := layer.Mount("/", NewMemFS("root")); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("zebrafish", 100)
	n, sum, err := layer.WriteChecksummed("/obj", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if n != units.Bytes(len(payload)) {
		t.Fatalf("n = %d", n)
	}
	again, err := layer.Checksum("/obj")
	if err != nil {
		t.Fatal(err)
	}
	if sum != again {
		t.Fatalf("checksum mismatch: %s vs %s", sum, again)
	}
	if len(sum) != 64 {
		t.Fatalf("not a sha256 hex: %q", sum)
	}
}

func TestCopyObject(t *testing.T) {
	layer := NewLayer()
	layer.Mount("/hot", NewMemFS("hot"))
	layer.Mount("/cold", NewMemFS("cold"))
	w, _ := layer.Create("/hot/f")
	io.WriteString(w, "data")
	w.Close()
	if err := layer.CopyObject("/hot/f", "/cold/f"); err != nil {
		t.Fatal(err)
	}
	a, _ := layer.Checksum("/hot/f")
	b, _ := layer.Checksum("/cold/f")
	if a != b {
		t.Fatal("replica differs from source")
	}
}

func TestParseURI(t *testing.T) {
	host, path, err := ParseURI("lsdf://lsdf.kit.edu/itg/plate1/img.raw")
	if err != nil {
		t.Fatal(err)
	}
	if host != "lsdf.kit.edu" || path != "/itg/plate1/img.raw" {
		t.Fatalf("parsed %q %q", host, path)
	}
	for _, bad := range []string{"http://x/y", "lsdf://", "lsdf://hostonly"} {
		if _, _, err := ParseURI(bad); err == nil {
			t.Errorf("ParseURI(%q) accepted", bad)
		}
	}
}

func TestTokenAuth(t *testing.T) {
	auth := NewTokenAuth()
	auth.Register("s3cret", Principal{User: "garcia", Groups: []string{"itg"}})
	p, err := auth.Authenticate(Credentials{User: "garcia", Token: "s3cret"})
	if err != nil || p.User != "garcia" {
		t.Fatalf("auth = %+v, %v", p, err)
	}
	if _, err := auth.Authenticate(Credentials{Token: "wrong"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
	if _, err := auth.Authenticate(Credentials{User: "mallory", Token: "s3cret"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("user mismatch err = %v", err)
	}
}

func TestACL(t *testing.T) {
	acl := NewACL()
	acl.Allow("garcia", "/itg", PermRead|PermWrite)
	acl.Allow("@bio", "/itg/shared", PermRead)
	garcia := Principal{User: "garcia"}
	biouser := Principal{User: "heidel", Groups: []string{"bio"}}
	if !acl.Check(garcia, "/itg/plate1", PermWrite) {
		t.Fatal("owner write denied")
	}
	if acl.Check(biouser, "/itg/plate1", PermRead) {
		t.Fatal("group read allowed outside grant")
	}
	if !acl.Check(biouser, "/itg/shared/x", PermRead) {
		t.Fatal("group read denied")
	}
	if acl.Check(biouser, "/itg/shared/x", PermWrite) {
		t.Fatal("group write allowed")
	}
	if acl.Check(Principal{User: "mallory"}, "/itg", PermRead) {
		t.Fatal("default deny violated")
	}
	// Grants match whole path components: a sibling that merely shares
	// the prefix's spelling is outside it.
	for _, path := range []string{"/itgx", "/itg2/plate1", "/itg-shared/x"} {
		if acl.Check(garcia, path, PermRead) {
			t.Fatalf("grant on /itg reaches sibling %s", path)
		}
	}
	if acl.Check(biouser, "/itg/sharedx", PermRead) {
		t.Fatal("grant on /itg/shared reaches /itg/sharedx")
	}
	acl.Allow("root", "/", PermRead)
	acl.Allow("slash", "/itg/", PermRead)
	if !acl.Check(Principal{User: "root"}, "/anything", PermRead) || !acl.Check(Principal{User: "slash"}, "/itg/x", PermRead) ||
		acl.Check(Principal{User: "slash"}, "/itgx", PermRead) {
		t.Fatal("trailing-slash grants misread")
	}
}

func TestAuthLayerEndToEnd(t *testing.T) {
	layer := NewLayer()
	layer.Mount("/", NewMemFS("root"))
	auth := NewTokenAuth()
	auth.Register("tok-g", Principal{User: "garcia"})
	auth.Register("tok-m", Principal{User: "mallory"})
	acl := NewACL()
	acl.Allow("garcia", "/itg", PermRead|PermWrite)
	al := NewAuthLayer(layer, auth, acl)

	good := Credentials{User: "garcia", Token: "tok-g"}
	bad := Credentials{User: "mallory", Token: "tok-m"}

	w, err := al.Create(good, "/itg/file")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "x")
	w.Close()

	if _, err := al.Open(bad, "/itg/file"); !errors.Is(err, ErrDenied) {
		t.Fatalf("mallory read err = %v", err)
	}
	if _, err := al.Create(bad, "/itg/other"); !errors.Is(err, ErrDenied) {
		t.Fatalf("mallory write err = %v", err)
	}
	if _, err := al.Open(Credentials{Token: "nope"}, "/itg/file"); !errors.Is(err, ErrDenied) {
		t.Fatalf("bad token err = %v", err)
	}
	r, err := al.Open(good, "/itg/file")
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := al.Stat(good, "/itg/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := al.List(good, "/itg"); err != nil {
		t.Fatal(err)
	}
	if err := al.Remove(good, "/itg/file"); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSConcurrent(t *testing.T) {
	m := NewMemFS("mem")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/c/%03d", i)
			w, err := m.Create(path)
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(w, "content-%d", i)
			w.Close()
			r, err := m.Open(path)
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(r)
			r.Close()
			if string(data) != fmt.Sprintf("content-%d", i) {
				t.Errorf("mismatch at %s", path)
			}
		}(i)
	}
	wg.Wait()
	list, err := m.List("/c/")
	if err != nil || len(list) != 32 {
		t.Fatalf("list = %d, err %v", len(list), err)
	}
}

// Property: any payload written through WriteChecksummed reads back
// byte-identical with a matching checksum, through every backend type.
func TestChecksumRoundTripQuick(t *testing.T) {
	layer := NewLayer()
	layer.Mount("/", NewMemFS("root"))
	i := 0
	f := func(payload []byte) bool {
		i++
		path := fmt.Sprintf("/q/%04d", i)
		_, sum, err := layer.WriteChecksummed(path, bytes.NewReader(payload))
		if err != nil {
			return false
		}
		r, err := layer.Open(path)
		if err != nil {
			return false
		}
		defer r.Close()
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, payload) {
			return false
		}
		again, err := layer.Checksum(path)
		return err == nil && again == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
