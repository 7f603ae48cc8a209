package tape

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/adal"
	"repro/internal/units"
)

// FSConfig configures the real-time tape store.
type FSConfig struct {
	CartridgeSize units.Bytes // default 1.5 TB (LTO-5)
}

// FS is a real (byte-moving, concurrent) tape store exposed through
// the ADAL Backend contract: the cold tier of the live tiered data
// path. Objects are packed append-only onto cartridges opened on
// demand; a read of a cartridge other than the one last mounted counts
// as a mount (FSStats.Mounts) and costs no time — the discrete-event
// Library models mount and seek mechanics, in virtual time.
type FS struct {
	name string
	cfg  FSConfig

	mu      sync.Mutex
	objects map[string]*tapeObject
	carts   []*FSCartridge
	mounted string // cartridge ID last threaded into "the drive"

	mounts    uint64
	cacheHits uint64
	bytesIn   units.Bytes
	bytesOut  units.Bytes
}

// FSCartridge is one cartridge of the real-time store.
type FSCartridge struct {
	ID       string
	Capacity units.Bytes
	Used     units.Bytes
}

type tapeObject struct {
	data    []byte // immutable after commit
	cart    string
	modTime time.Time
}

var _ adal.Backend = (*FS)(nil)

// NewFS creates an empty real-time tape store.
func NewFS(name string, cfg FSConfig) *FS {
	if cfg.CartridgeSize <= 0 {
		cfg.CartridgeSize = units.Bytes(1500) * units.GB
	}
	return &FS{name: name, cfg: cfg, objects: make(map[string]*tapeObject)}
}

// Name implements adal.Backend.
func (f *FS) Name() string { return f.name }

// Create implements adal.Backend. Bytes are buffered and packed onto
// a cartridge at Close, mirroring how tape writes are batched.
func (f *FS) Create(path string) (io.WriteCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.objects[path]; ok {
		return nil, fmt.Errorf("%w: %s:%s", adal.ErrExists, f.name, path)
	}
	// Reserve the name so concurrent creators collide here.
	f.objects[path] = &tapeObject{modTime: time.Now()}
	return &fsWriter{fs: f, path: path}, nil
}

type fsWriter struct {
	fs     *FS
	path   string
	buf    bytes.Buffer
	closed bool
}

func (w *fsWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("tape: write after close: %s", w.path)
	}
	return w.buf.Write(p)
}

func (w *fsWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	data := w.buf.Bytes()
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	cart := w.fs.pickCartridge(units.Bytes(len(data)))
	cart.Used += units.Bytes(len(data))
	w.fs.bytesIn += units.Bytes(len(data))
	w.fs.objects[w.path] = &tapeObject{data: data, cart: cart.ID, modTime: time.Now()}
	return nil
}

// pickCartridge returns the newest cartridge if the write fits,
// opening a fresh one otherwise. Callers hold f.mu.
func (f *FS) pickCartridge(size units.Bytes) *FSCartridge {
	if n := len(f.carts); n > 0 && f.carts[n-1].Capacity-f.carts[n-1].Used >= size {
		return f.carts[n-1]
	}
	capacity := f.cfg.CartridgeSize
	if capacity < size {
		capacity = size // oversized object gets a dedicated cartridge
	}
	c := &FSCartridge{ID: fmt.Sprintf("%s-%04d", f.name, len(f.carts)+1), Capacity: capacity}
	f.carts = append(f.carts, c)
	return c
}

// Open implements adal.Backend, counting a mount when the object's
// cartridge is not the one last mounted.
func (f *FS) Open(path string) (io.ReadCloser, error) {
	f.mu.Lock()
	obj, ok := f.objects[path]
	if !ok || obj.cart == "" {
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, f.name, path)
	}
	if obj.cart != f.mounted {
		f.mounted = obj.cart
		f.mounts++
	} else {
		f.cacheHits++
	}
	f.bytesOut += units.Bytes(len(obj.data))
	data := obj.data
	f.mu.Unlock()
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Stat implements adal.Backend.
func (f *FS) Stat(path string) (adal.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	obj, ok := f.objects[path]
	if !ok || obj.cart == "" {
		return adal.FileInfo{}, fmt.Errorf("%w: %s:%s", adal.ErrNotFound, f.name, path)
	}
	return adal.FileInfo{Path: path, Size: units.Bytes(len(obj.data)), ModTime: obj.modTime}, nil
}

// List implements adal.Backend.
func (f *FS) List(prefix string) ([]adal.FileInfo, error) {
	f.mu.Lock()
	out := make([]adal.FileInfo, 0, len(f.objects))
	for p, obj := range f.objects {
		if obj.cart == "" || !strings.HasPrefix(p, prefix) {
			continue
		}
		out = append(out, adal.FileInfo{Path: p, Size: units.Bytes(len(obj.data)), ModTime: obj.modTime})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Remove implements adal.Backend. Freed capacity is returned to the
// cartridge — a simplification of real tape reclamation, which wants
// a compaction pass.
func (f *FS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	obj, ok := f.objects[path]
	if !ok || obj.cart == "" {
		return fmt.Errorf("%w: %s:%s", adal.ErrNotFound, f.name, path)
	}
	for _, c := range f.carts {
		if c.ID == obj.cart {
			c.Used -= units.Bytes(len(obj.data))
			break
		}
	}
	delete(f.objects, path)
	return nil
}

// FSStats is a snapshot of the real-time store's counters.
type FSStats struct {
	Objects    int
	Cartridges int
	Mounts     uint64
	CacheHits  uint64
	BytesIn    units.Bytes
	BytesOut   units.Bytes
}

// FSStats returns a snapshot of the store counters.
func (f *FS) FSStats() FSStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, obj := range f.objects {
		if obj.cart != "" {
			n++
		}
	}
	return FSStats{
		Objects:    n,
		Cartridges: len(f.carts),
		Mounts:     f.mounts,
		CacheHits:  f.cacheHits,
		BytesIn:    f.bytesIn,
		BytesOut:   f.bytesOut,
	}
}

// Cartridges lists the store's cartridges in creation order.
func (f *FS) CartridgeList() []FSCartridge {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FSCartridge, len(f.carts))
	for i, c := range f.carts {
		out[i] = *c
	}
	return out
}
