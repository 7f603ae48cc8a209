package durafs

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory FS that models the durability semantics of a
// real disk: every Write lands in an unsynced extent list, Sync
// promotes the extents to the durable prefix, and Crash discards —
// or, when torn writes are enabled, partially keeps — whatever was
// never synced. After a Crash the tree holds exactly what a disk
// would after power loss, and the store can be re-opened on it to
// exercise recovery.
//
// All methods are safe for concurrent use. mu guards the namespace, and
// each file's lock guards its bytes, which reads serve in place.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

// memFile is one file's state: its extents in order, the first synced
// of them durable and the rest appended since the last Sync. Reads see
// them all (the OS page cache serves un-fsynced data); only Crash
// distinguishes the two.
type memFile struct {
	mu     sync.RWMutex
	ext    [][]byte
	synced int // ext[:synced] is durable
	mod    time.Time
}

func (mf *memFile) size() int64 {
	var n int64
	for _, e := range mf.ext {
		n += int64(len(e))
	}
	return n
}

// readAt copies the bytes from off into p straight from the extents.
// Callers hold mf.mu.
func (mf *memFile) readAt(p []byte, off int64) (n int) {
	for _, e := range mf.ext {
		if k := min(off, int64(len(e))); n < len(p) {
			n += copy(p[n:], e[k:])
			off -= k
		}
	}
	return n
}

// sync makes every extent durable. A file's first Sync keeps them as
// they are: an object costs no copy however many writes it took. Later
// ones coalesce them into one, grown at least double, so a log's Syncs
// stay linear. Callers hold mf.mu.
func (mf *memFile) sync() {
	if mf.synced == 0 || mf.synced == len(mf.ext) {
		mf.synced = len(mf.ext)
		return
	}
	head, from := mf.ext[0], mf.synced
	if n := int(mf.size()); from > 1 || n > cap(head) {
		head, from = make([]byte, 0, max(n, 2*cap(head))), 0
	}
	for _, e := range mf.ext[from:] {
		head = append(head, e...)
	}
	mf.ext, mf.synced = [][]byte{head}, 1
}

func (mf *memFile) info(name string) Info {
	mf.mu.RLock()
	defer mf.mu.RUnlock()
	return Info{Name: name, Size: mf.size(), ModTime: mf.mod}
}

// NewMem returns an empty MemFS.
func NewMem() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(strings.ReplaceAll(p, "\\", "/"))
}

// MkdirAll is a no-op: a MemFS directory is implicit in its files' names.
func (m *MemFS) MkdirAll(dir string) error { return nil }

// lookup finds name, returning its key in m.files. Callers hold m.mu.
func (m *MemFS) lookup(name string) (string, *memFile, error) {
	key := clean(name)
	mf, ok := m.files[key]
	if !ok {
		return key, nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return key, mf, nil
}

// Create opens name for writing, truncating any existing file. The
// truncation itself is treated as a metadata operation made durable
// by SyncDir on the parent (like the directory entry).
func (m *MemFS) Create(name string) (File, error) { return m.openWrite(name, true) }

// OpenAppend opens name for appending, creating it if missing.
func (m *MemFS) OpenAppend(name string) (File, error) { return m.openWrite(name, false) }

func (m *MemFS) openWrite(name string, truncate bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := clean(name)
	mf, ok := m.files[key]
	if truncate || !ok {
		mf = &memFile{mod: time.Now()}
		m.files[key] = mf
	}
	return &memHandle{f: mf, write: true}, nil
}

// Open opens name read-only.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, mf, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	return &memHandle{f: mf}, nil
}

// Stat describes name.
func (m *MemFS) Stat(name string) (Info, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, mf, err := m.lookup(name)
	if err != nil {
		return Info{}, err
	}
	return mf.info(name), nil
}

// Walk describes every file under dir.
func (m *MemFS) Walk(dir string) ([]Info, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	prefix := strings.TrimSuffix(clean(dir), "/") + "/"
	var out []Info
	for p, mf := range m.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, mf.info(p))
		}
	}
	return out, nil
}

// Rename atomically replaces newname with oldname. The renamed
// file's unsynced extents stay unsynced: a snapshot renamed into
// place without a prior Sync still loses its tail on Crash, exactly
// as on a real filesystem.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key, mf, err := m.lookup(oldname)
	if err == nil {
		delete(m.files, key)
		m.files[clean(newname)] = mf
	}
	return err
}

// Remove deletes name.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key, _, err := m.lookup(name)
	if err == nil {
		delete(m.files, key)
	}
	return err
}

// ReadDir lists the file names in dir, sorted.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d := clean(dir)
	var names []string
	for p := range m.files {
		if path.Dir(p) == d {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir is a no-op for MemFS: directory entries (Create, Rename,
// Remove) are modeled as immediately durable. File *contents* are
// not — that asymmetry is deliberate: it is the failure mode that
// catches a snapshot renamed into place without a content Sync,
// which is the bug class the seam exists to expose.
func (m *MemFS) SyncDir(dir string) error { return nil }

// Crash simulates power loss. Synced bytes survive; for each file
// the unsynced extents are dropped — unless rng is non-nil, in which
// case a random prefix of the extents survives and the last
// surviving extent may be torn at a random byte, which is the
// worst-case POSIX allowance. Open handles keep working against the
// post-crash state (the test harness, not the handle, decides when
// the "process" is dead — use Fault for that).
func (m *MemFS) Crash(rng *rand.Rand) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mf := range m.files {
		mf.mu.Lock()
		unsynced, keep := mf.ext[mf.synced:], 0
		if rng != nil && len(unsynced) > 0 {
			keep = rng.Intn(len(unsynced) + 1)
			if keep < len(unsynced) && rng.Intn(2) == 0 {
				unsynced[keep] = unsynced[keep][:rng.Intn(len(unsynced[keep])+1)]
				keep++
			}
		}
		mf.ext = mf.ext[:mf.synced+keep]
		mf.sync()
		mf.mu.Unlock()
	}
}

// memHandle is one open handle on a memFile, used by one goroutine at a
// time; f.mu guards its state.
type memHandle struct {
	f      *memFile
	off    int64
	write  bool
	closed bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	n := h.f.readAt(p, h.off)
	h.off += int64(n)
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	switch whence {
	case io.SeekCurrent:
		offset += h.off
	case io.SeekEnd:
		offset += h.f.size()
	}
	if offset < 0 {
		return 0, &fs.PathError{Op: "seek", Err: fs.ErrInvalid}
	}
	h.off = offset
	return offset, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if !h.write {
		return 0, &fs.PathError{Op: "write", Err: fs.ErrPermission}
	}
	h.f.ext = append(h.f.ext, append([]byte(nil), p...))
	h.f.mod = time.Now()
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.f.sync()
	return nil
}

// Truncate cuts the file to size bytes. Like directory operations it
// is modeled as immediately durable — the store only truncates to
// drop a torn WAL tail during recovery, where resurrection would be
// harmless anyway (stale records are skipped by LSN).
func (h *memHandle) Truncate(size int64) error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if size > h.f.size() {
		return fmt.Errorf("truncate beyond EOF: %w", fs.ErrInvalid)
	}
	kept := make([]byte, size)
	h.f.readAt(kept, 0)
	h.f.ext, h.f.synced, h.f.mod = [][]byte{kept}, 1, time.Now()
	if h.off > size {
		h.off = size
	}
	return nil
}

func (h *memHandle) Size() (int64, error) {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	return h.f.size(), nil
}

func (h *memHandle) Close() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.closed = true
	return nil
}
