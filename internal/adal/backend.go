// Package adal is the Abstract Data Access Layer (slides 9-10):
// "Hardware and software choices limit the access protocols and APIs
// => need a unified access layer ... low-level interface to LSDF,
// extensible to support new backends, authentication mechanisms."
//
// A Backend is one storage system (an in-memory store, a POSIX
// directory, the Hadoop filesystem). A Layer federates backends under
// one namespace via a mount table, and an AuthLayer wraps a Layer
// with pluggable authentication and path-prefix authorization.
package adal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

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
	IsDir   bool

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
	// Create opens a new object for writing; it fails if the path exists.
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

// MemFS is an in-memory backend: the reference implementation and the
// default store for tests and examples.
type MemFS struct {
	name  string
	mu    sync.RWMutex
	files map[string]*memFile
	clock func() time.Time
}

type memFile struct {
	data    []byte
	modTime time.Time
	// pending marks a name reserved by Create whose writer has not
	// closed yet: it collides with other creators but is invisible to
	// readers, who must never see an object before its bytes.
	pending bool
}

// committed looks up a file readers may see. Callers hold m.mu.
func (m *MemFS) committed(path string) (*memFile, bool) {
	f, ok := m.files[path]
	return f, ok && !f.pending
}

// NewMemFS creates an empty in-memory backend.
func NewMemFS(name string) *MemFS {
	return &MemFS{name: name, files: make(map[string]*memFile), clock: time.Now}
}

// SetClock injects a timestamp source (virtual time in simulations).
func (m *MemFS) SetClock(clock func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock = clock
}

// Name implements Backend.
func (m *MemFS) Name() string { return m.name }

// Create implements Backend.
func (m *MemFS) Create(path string) (io.WriteCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return nil, fmt.Errorf("%w: %s:%s", ErrExists, m.name, path)
	}
	// Reserve the name so concurrent creators collide here, not at Close.
	m.files[path] = &memFile{modTime: m.clock(), pending: true}
	return &memWriter{fs: m, path: path}, nil
}

type memWriter struct {
	fs     *MemFS
	path   string
	buf    bytes.Buffer
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("adal: write after close: %s", w.path)
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.fs.files[w.path] = &memFile{data: w.buf.Bytes(), modTime: w.fs.clock()}
	return nil
}

// Open implements Backend. The reader seeks (and writes itself out
// without a staging buffer), so SkipTo on it is O(1).
func (m *MemFS) Open(path string) (io.ReadCloser, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.committed(path)
	if !ok {
		return nil, fmt.Errorf("%w: %s:%s", ErrNotFound, m.name, path)
	}
	return memReader{bytes.NewReader(f.data)}, nil
}

type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// Stat implements Backend.
func (m *MemFS) Stat(path string) (FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	f, ok := m.committed(path)
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s:%s", ErrNotFound, m.name, path)
	}
	return FileInfo{Path: path, Size: units.Bytes(len(f.data)), ModTime: f.modTime}, nil
}

// List implements Backend.
func (m *MemFS) List(prefix string) ([]FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []FileInfo
	for p, f := range m.files {
		if strings.HasPrefix(p, prefix) && !f.pending {
			out = append(out, FileInfo{Path: p, Size: units.Bytes(len(f.data)), ModTime: f.modTime})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Remove implements Backend.
func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("%w: %s:%s", ErrNotFound, m.name, path)
	}
	delete(m.files, path)
	return nil
}

// TotalBytes reports the stored volume (capacity accounting hooks for
// the facility layer).
func (m *MemFS) TotalBytes() units.Bytes {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n units.Bytes
	for _, f := range m.files {
		n += units.Bytes(len(f.data))
	}
	return n
}
