// Package adal is the Abstract Data Access Layer (slides 9-10):
// "Hardware and software choices limit the access protocols and APIs
// => need a unified access layer ... low-level interface to LSDF,
// extensible to support new backends, authentication mechanisms."
//
// A Backend is one storage system: the object store (FSBackend, in
// memory or in a POSIX directory, one commit rule for both) or the
// Hadoop filesystem. A Layer federates backends under one namespace via
// a mount table, and an AuthLayer wraps a Layer with pluggable
// authentication and path-prefix authorization.
package adal

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata/durafs"
	"repro/internal/units"
)

// Errors shared by all backends.
var (
	ErrNotFound = errors.New("adal: not found")
	ErrExists   = errors.New("adal: already exists")
	ErrDenied   = errors.New("adal: permission denied")
	ErrNoMount  = errors.New("adal: no backend mounted for path")
)

// FileInfo describes one object. The listing facts are filled by the
// Stat of a backend that knows them and pass through the layers above
// it; they are empty elsewhere, and in List results.
type FileInfo struct {
	Path    string
	Size    units.Bytes
	ModTime time.Time

	Placement string   // tier state (resident, premigrated, migrated) under a tiering backend
	Replicas  []string // sites holding a valid replica, under a replication federation
	Cached    string   // read-cache tier holding blocks of it ("memory" or "disk")
}

// Backend is the minimal contract a storage system must offer to be
// reachable through ADAL. Paths are slash-separated and absolute
// within the backend.
type Backend interface {
	// Name identifies the backend in diagnostics.
	Name() string
	// Create opens a new object for writing, visible once Close returns
	// nil; it fails if the path exists or another writer holds it.
	Create(path string) (io.WriteCloser, error)
	// Open reads an existing object.
	Open(path string) (io.ReadCloser, error)
	// Stat describes an object.
	Stat(path string) (FileInfo, error)
	// List returns the objects under a prefix, sorted by path.
	List(prefix string) ([]FileInfo, error)
	// Remove deletes an object.
	Remove(path string) error
}

// Every temp name carries tempMarker, which no object's name does, and a
// number from tempSeq, process-wide so two stores on one root never clash.
const tempMarker = ".~tmp."

var tempSeq atomic.Uint64

// FSBackend is the object store: objects under root on a durafs.FS,
// directories only namespace. An object is written under a temp name and
// committed the way the metadata journal installs a snapshot (Sync,
// Close, Rename, SyncDir): it is visible only once whole and durable.
type FSBackend struct {
	name    string
	fs      durafs.FS
	root    string   // "" in memory; the absolute root directory on disk
	writing sync.Map // names whose writer has not closed
}

// NewMemFS creates an empty in-memory object store.
func NewMemFS(name string) *FSBackend { return newFSBackend(name, durafs.NewMem(), "") }

// NewLocalFS creates an object store in the existing directory root: the
// facility's POSIX-mounted storage (GPFS in the paper).
func NewLocalFS(name, root string) (*FSBackend, error) {
	abs, err := filepath.Abs(root)
	if err == nil {
		var info os.FileInfo
		if info, err = os.Stat(abs); err == nil && !info.IsDir() {
			err = fmt.Errorf("%q is not a directory", root)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("adal: localfs root: %w", err)
	}
	return newFSBackend(name, durafs.OS(), strings.TrimSuffix(filepath.ToSlash(abs), "/")), nil
}

// newFSBackend opens the store in root on fsys, removing the temp files of
// writers that died uncommitted (one that cannot be removed is never listed).
func newFSBackend(name string, fsys durafs.FS, root string) *FSBackend {
	files, _ := fsys.Walk(root + "/")
	for _, f := range files {
		if strings.Contains(f.Name, tempMarker) {
			_ = fsys.Remove(f.Name)
		}
	}
	return &FSBackend{name: name, fs: fsys, root: root}
}

// Name implements Backend.
func (b *FSBackend) Name() string { return b.name }

// resolve anchors p under the root, which a cleaned rooted path cannot leave.
func (b *FSBackend) resolve(p string) (string, error) {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	if p = path.Clean(p); strings.Contains(p, tempMarker) {
		return "", fmt.Errorf("%w: reserved name: %q", ErrDenied, p)
	}
	return b.root + p, nil
}

// fail maps a filesystem error on object p to the package's errors.
func (b *FSBackend) fail(p string, err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %s:%s", ErrNotFound, b.name, p)
	case errors.Is(err, fs.ErrExist):
		return fmt.Errorf("%w: %s:%s", ErrExists, b.name, p)
	}
	return fmt.Errorf("adal: %s:%s: %w", b.name, p, err)
}

// Create implements Backend. A name is held from Create until Close,
// and a commit lands before its hold is released, so of two creators
// one sees the other's hold or its object.
func (b *FSBackend) Create(p string) (io.WriteCloser, error) {
	full, err := b.resolve(p)
	if err != nil {
		return nil, err
	}
	if _, held := b.writing.LoadOrStore(full, true); held {
		return nil, b.fail(p, fs.ErrExist)
	}
	w := &fsWriter{b: b, full: full, tmp: full + tempMarker + strconv.FormatUint(tempSeq.Add(1), 10)}
	if _, err = b.fs.Stat(full); err == nil {
		err = fs.ErrExist
	} else if err = b.fs.MkdirAll(path.Dir(full)); err == nil {
		w.f, err = b.fs.Create(w.tmp)
	}
	if err != nil {
		b.writing.Delete(full)
		return nil, b.fail(p, err)
	}
	return w, nil
}

type fsWriter struct {
	b         *FSBackend
	f         durafs.File
	full, tmp string
	err       error // the first failed Write: nothing is committed
	closed    bool
}

func (w *fsWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.err = cmp.Or(w.err, err)
	return n, err
}

// Close commits the object: Sync, Close, Rename, SyncDir. A commit that
// fails removes the temp file and returns the error.
func (w *fsWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := cmp.Or(w.err, w.f.Sync(), w.f.Close())
	if err == nil {
		err = w.b.fs.Rename(w.tmp, w.full)
	}
	if err == nil {
		err = w.b.fs.SyncDir(path.Dir(w.full))
	}
	if err != nil {
		_ = w.b.fs.Remove(w.tmp)
	}
	w.b.writing.Delete(w.full)
	return err
}

// Open implements Backend. The reader seeks, so SkipTo on it is O(1).
func (b *FSBackend) Open(p string) (io.ReadCloser, error) {
	full, err := b.resolve(p)
	if err != nil {
		return nil, err
	}
	f, err := b.fs.Open(full)
	return f, b.fail(p, err)
}

// Stat implements Backend.
func (b *FSBackend) Stat(p string) (FileInfo, error) {
	full, err := b.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	st, err := b.fs.Stat(full)
	if err != nil {
		return FileInfo{}, b.fail(p, err)
	}
	return FileInfo{Path: p, Size: units.Bytes(st.Size), ModTime: st.ModTime}, nil
}

// List implements Backend.
func (b *FSBackend) List(prefix string) ([]FileInfo, error) {
	files, err := b.fs.Walk(b.root + "/")
	if err != nil {
		return nil, b.fail(prefix, err)
	}
	var out []FileInfo
	for _, f := range files {
		p := strings.TrimPrefix(f.Name, b.root)
		if strings.HasPrefix(p, prefix) && !strings.Contains(p, tempMarker) {
			out = append(out, FileInfo{Path: p, Size: units.Bytes(f.Size), ModTime: f.ModTime})
		}
	}
	slices.SortFunc(out, func(x, y FileInfo) int { return strings.Compare(x.Path, y.Path) })
	return out, nil
}

// Remove implements Backend.
func (b *FSBackend) Remove(p string) error {
	full, err := b.resolve(p)
	if err != nil {
		return err
	}
	return b.fail(p, b.fs.Remove(full))
}
