package adal

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/units"
)

// TestMountResolveListRace mounts prefixes while Resolve, List and
// Mounts run concurrently (run with -race) and checks the
// longest-prefix invariant: a resolution lands on the longest mount
// present, with the matching backend-relative path, and once the
// deeper mount has been seen it is never lost to the shorter one.
func TestMountResolveListRace(t *testing.T) {
	l := NewLayer()
	a := NewMemFS("a")
	ab := NewMemFS("ab")
	abc := NewMemFS("abc")
	if err := l.Mount("/a", a); err != nil {
		t.Fatal(err)
	}
	if err := l.Mount("/a/b", ab); err != nil {
		t.Fatal(err)
	}
	// One object per backend so List has something to map.
	for _, fs := range []*FSBackend{a, ab, abc} {
		w, err := fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte(fs.Name())); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 100
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churn: mount siblings under /a/b, and the deepest prefix midway.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			if i == rounds/2 {
				if err := l.Mount("/a/b/c", abc); err != nil {
					t.Errorf("mount: %v", err)
					return
				}
			}
			if err := l.Mount(fmt.Sprintf("/a/b/n%d", i), NewMemFS("n")); err != nil {
				t.Errorf("mount sibling: %v", err)
				return
			}
		}
	}()

	// Mount unrelated prefixes; they must never affect /a resolution.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			fs := NewMemFS(fmt.Sprintf("side%d", g))
			for i := 0; i < rounds; i++ {
				if err := l.Mount(fmt.Sprintf("/side%d/%d", g, i), fs); err != nil {
					t.Errorf("mount side: %v", err)
					return
				}
			}
		}()
	}

	// Readers: Resolve and List must always see a consistent
	// (backend, rel) pair for the mount table at that moment.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sawDeepest := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				be, rel, err := l.Resolve("/a/b/c/x")
				if err != nil {
					t.Errorf("resolve: %v", err)
					return
				}
				switch be.Name() {
				case "abc":
					sawDeepest = true
					if rel != "/x" {
						t.Errorf("abc rel = %q", rel)
						return
					}
				case "ab":
					if rel != "/c/x" || sawDeepest {
						t.Errorf("ab rel = %q after /a/b/c seen: %v", rel, sawDeepest)
						return
					}
				default:
					t.Errorf("resolved to %q", be.Name())
					return
				}
				infos, err := l.List("/a/b")
				if err != nil {
					t.Errorf("list: %v", err)
					return
				}
				for _, info := range infos {
					if info.Path != "/a/b/f" {
						t.Errorf("list path = %q", info.Path)
						return
					}
				}
				_ = l.Mounts()
			}
		}()
	}
	wg.Wait()
}

// truncatedFS serves objects whose reads fail partway: the copy-path
// error-injection backend.
type truncatedFS struct {
	*FSBackend
	failAfter int
}

func (f *truncatedFS) Open(path string) (io.ReadCloser, error) {
	r, err := f.FSBackend.Open(path)
	if err != nil {
		return nil, err
	}
	return &truncatedReader{r: r, left: f.failAfter}, nil
}

type truncatedReader struct {
	r    io.ReadCloser
	left int
}

func (tr *truncatedReader) Read(p []byte) (int, error) {
	if tr.left <= 0 {
		return 0, errors.New("truncated: injected read failure")
	}
	if len(p) > tr.left {
		p = p[:tr.left]
	}
	n, err := tr.r.Read(p)
	tr.left -= n
	return n, err
}

func (tr *truncatedReader) Close() error { return tr.r.Close() }

func TestCopyObjectChecksummed(t *testing.T) {
	l := NewLayer()
	src := NewMemFS("src")
	dst := NewMemFS("dst")
	if err := l.Mount("/src", src); err != nil {
		t.Fatal(err)
	}
	if err := l.Mount("/dst", dst); err != nil {
		t.Fatal(err)
	}
	payload := strings.Repeat("stream me, don't slurp me. ", 40_000) // ~1 MiB, > one pool buffer
	wantN, wantSum, err := l.WriteChecksummed("/src/x", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.CopyObjectChecksummed("/src/x", "/dst/x")
	if err != nil {
		t.Fatal(err)
	}
	if d.Size != wantN || d.Sum != wantSum || !d.Chained() {
		t.Fatalf("copy = (%d, %.12s, chained %v), want (%d, %.12s, chained)", d.Size, d.Sum, d.Chained(), wantN, wantSum)
	}
	if again, err := l.Checksum("/dst/x"); err != nil || again != wantSum {
		t.Fatalf("destination checksum = %q err=%v", again, err)
	}
}

func TestCopyObjectCleansPartialDestinationOnError(t *testing.T) {
	l := NewLayer()
	bad := &truncatedFS{FSBackend: NewMemFS("bad"), failAfter: 64 * 1024}
	dst := NewMemFS("dst")
	if err := l.Mount("/bad", bad); err != nil {
		t.Fatal(err)
	}
	if err := l.Mount("/dst", dst); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.WriteChecksummed("/bad/x", strings.NewReader(strings.Repeat("z", 512*1024))); err != nil {
		t.Fatal(err)
	}
	if err := l.CopyObject("/bad/x", "/dst/x"); err == nil {
		t.Fatal("copy of a failing source succeeded")
	}
	// The half-written destination must be gone, and the name free
	// for a retry.
	if _, err := l.Stat("/dst/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("partial destination survived: %v", err)
	}
	if w, err := l.Create("/dst/x"); err != nil {
		t.Fatalf("destination name not reusable after failed copy: %v", err)
	} else {
		w.Close()
	}
}

func TestNewChecksumWriter(t *testing.T) {
	mem := NewMemFS("m")
	inner, err := mem.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	var gotN units.Bytes
	var gotSum string
	w := NewChecksumWriter(inner, func(d Digest, cerr error) error {
		gotN, gotSum = d.Size, d.Sum
		return cerr
	})
	io.WriteString(w, "check")
	io.WriteString(w, "sum")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if gotN != 8 {
		t.Fatalf("n = %d", gotN)
	}
	l := NewLayer()
	l.Mount("/", mem)
	want, err := l.Checksum("/x")
	if err != nil || want != gotSum {
		t.Fatalf("sum = %.12s, want %.12s (err=%v)", gotSum, want, err)
	}
}
