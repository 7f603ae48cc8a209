package adal

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/units"
)

// Layer federates backends under one namespace through a mount table
// with longest-prefix resolution — the "unified access layer" of
// slide 9. A path like /hdfs/exp/run1 resolves to the backend mounted
// at /hdfs with backend-relative path /exp/run1.
type Layer struct {
	mu     sync.RWMutex
	mounts []mount // sorted by descending prefix length
}

type mount struct {
	prefix  string
	backend Backend
}

// NewLayer creates an empty federation.
func NewLayer() *Layer { return &Layer{} }

// Mount attaches a backend at prefix (e.g. "/gpfs"). Prefixes must be
// absolute, must not collide exactly, and nest by longest match.
func (l *Layer) Mount(prefix string, b Backend) error {
	if !strings.HasPrefix(prefix, "/") {
		return fmt.Errorf("adal: mount prefix %q must be absolute", prefix)
	}
	prefix = strings.TrimRight(prefix, "/")
	if prefix == "" {
		prefix = "/"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.mounts {
		if m.prefix == prefix {
			return fmt.Errorf("adal: prefix %q already mounted (%s)", prefix, m.backend.Name())
		}
	}
	l.mounts = append(l.mounts, mount{prefix: prefix, backend: b})
	sort.Slice(l.mounts, func(i, j int) bool {
		return len(l.mounts[i].prefix) > len(l.mounts[j].prefix)
	})
	return nil
}

// Mounts lists mount prefixes, longest first.
func (l *Layer) Mounts() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, len(l.mounts))
	for i, m := range l.mounts {
		out[i] = m.prefix
	}
	return out
}

// Resolve maps a federated path to (backend, backend-relative path).
func (l *Layer) Resolve(path string) (Backend, string, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, m := range l.mounts {
		if m.prefix == "/" {
			return m.backend, path, nil
		}
		if path == m.prefix || strings.HasPrefix(path, m.prefix+"/") {
			rel := strings.TrimPrefix(path, m.prefix)
			if rel == "" {
				rel = "/"
			}
			return m.backend, rel, nil
		}
	}
	return nil, "", fmt.Errorf("%w: %q", ErrNoMount, path)
}

// Create opens a new object for writing at the federated path.
func (l *Layer) Create(path string) (io.WriteCloser, error) {
	b, rel, err := l.Resolve(path)
	if err != nil {
		return nil, err
	}
	return b.Create(rel)
}

// Open reads an object at the federated path.
func (l *Layer) Open(path string) (io.ReadCloser, error) {
	return l.OpenRange(context.Background(), path, 0, -1)
}

// OpenCtx is Open carrying the caller's context.
func (l *Layer) OpenCtx(ctx context.Context, path string) (io.ReadCloser, error) {
	return l.OpenRange(ctx, path, 0, -1)
}

// OpenRange reads bytes [off, off+n) of the object at the federated
// path, to its end when n < 0 — the one read entry of the layer.
func (l *Layer) OpenRange(ctx context.Context, path string, off, n int64) (io.ReadCloser, error) {
	b, rel, err := l.Resolve(path)
	if err != nil {
		return nil, err
	}
	return OpenRange(ctx, b, rel, off, n)
}

// RangeOpener is the structural upgrade a backend implements to serve
// a byte range itself and to see the caller's context (trace spans,
// cancellation). The Backend interface stays context-free and
// whole-object — most backends are local and their readers seek.
type RangeOpener interface {
	OpenRange(ctx context.Context, path string, off, n int64) (io.ReadCloser, error)
}

// OpenRange opens bytes [off, off+n) of path on b (to the end when
// n < 0): through the backend's own OpenRange when it has one,
// otherwise by Open, SkipTo and a limit.
func OpenRange(ctx context.Context, b Backend, path string, off, n int64) (io.ReadCloser, error) {
	if ro, ok := b.(RangeOpener); ok {
		return ro.OpenRange(ctx, path, off, n)
	}
	r, err := b.Open(path)
	if err != nil {
		return nil, err
	}
	return ranged(r, off, n)
}

// ranged positions a freshly opened reader at off and caps it at n
// bytes (n < 0: no cap), closing it when the skip fails.
func ranged(r io.ReadCloser, off, n int64) (io.ReadCloser, error) {
	if err := SkipTo(r, off); err != nil {
		r.Close()
		return nil, err
	}
	if n < 0 {
		return r, nil
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(r, n), r}, nil
}

// SkipTo advances r by off bytes: a Seek when the reader can (MemFS,
// LocalFS and DFS readers do: O(1)), a read-and-discard otherwise.
func SkipTo(r io.Reader, off int64) error {
	if off <= 0 {
		return nil
	}
	if s, ok := r.(io.Seeker); ok {
		_, err := s.Seek(off, io.SeekCurrent)
		return err
	}
	_, err := io.CopyN(io.Discard, r, off)
	return err
}

// Stat describes an object; the returned Path is the federated one.
func (l *Layer) Stat(path string) (FileInfo, error) {
	b, rel, err := l.Resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	info, err := b.Stat(rel)
	if err != nil {
		return FileInfo{}, err
	}
	info.Path = path
	return info, nil
}

// List enumerates objects under a federated prefix. The prefix must
// resolve to a single mount; cross-mount listing goes through Mounts.
func (l *Layer) List(prefix string) ([]FileInfo, error) {
	b, rel, err := l.Resolve(prefix)
	if err != nil {
		return nil, err
	}
	infos, err := b.List(rel)
	if err != nil {
		return nil, err
	}
	mountPrefix := strings.TrimSuffix(prefix, rel)
	for i := range infos {
		infos[i].Path = mountPrefix + infos[i].Path
	}
	return infos, nil
}

// Remove deletes an object at the federated path.
func (l *Layer) Remove(path string) error {
	b, rel, err := l.Resolve(path)
	if err != nil {
		return err
	}
	return b.Remove(rel)
}

// copyBufPool recycles copyBuf-byte buffers — PooledCopy's write unit,
// of which Transfer fills a ChainBlock at a time — across concurrent
// ingest workers, copies and reads.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBuf)
		return &b
	},
}

const copyBuf = 256 << 10

// PooledCopy is io.Copy through the shared transfer-buffer pool: when
// neither end short-circuits the buffer (src is a WriterTo — the DFS
// reader is — or dst a ReaderFrom), the 256 KiB staging buffer is
// recycled instead of allocated per copy, so sustained traffic stops
// churning the allocator.
func PooledCopy(dst io.Writer, src io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(dst, src, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// WriteChecksummed streams r into path, returning the byte count and
// hex SHA-256 — the ingest pipeline's canonical write primitive. Every
// stored byte is hashed once: Transfer reads the digest of a mount that
// hands out a ChecksumWriter (the federation's, a tier's) and hashes
// only for a plain writer. When the copy fails, the part already
// written is removed (if Close committed it): a half-written object is
// never left behind.
func (l *Layer) WriteChecksummed(path string, r io.Reader) (units.Bytes, string, error) {
	d, err := l.writeDigest(path, r)
	return d.Size, d.Sum, err
}

// writeDigest is WriteChecksummed returning the whole digest.
func (l *Layer) writeDigest(path string, r io.Reader) (Digest, error) {
	w, err := l.Create(path)
	if err != nil {
		return Digest{}, err
	}
	d, werr := Transfer(context.TODO(), w, r, Digest{})
	cerr := w.Close()
	if werr != nil {
		if cerr == nil {
			_ = l.Remove(path)
		}
		return Digest{}, fmt.Errorf("adal: writing %s: %w", path, werr)
	}
	if cerr != nil {
		return Digest{}, cerr
	}
	return d, nil
}

// NewChecksumWriter wraps w so every written byte is SHA-256-hashed
// in passing, checkpoint chain included; Close closes w and then hands
// the digest and the close error to commit, whose return value becomes
// Close's result. A failed Write is sticky: Close reports
// it to commit in place of the close error, so a stream that lost bytes
// is never committed as whole. Backends that must register a content
// hash at commit time hand this writer out.
func NewChecksumWriter(w io.WriteCloser, commit func(d Digest, err error) error) *ChecksumWriter {
	return &ChecksumWriter{w: w, h: NewChainHasher(), commit: commit}
}

type ChecksumWriter struct {
	w      io.WriteCloser
	h      *ChainHasher
	werr   error // first failed Write
	commit func(Digest, error) error
	closed bool
}

func (cw *ChecksumWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.h.Write(p[:n])
	if err != nil && cw.werr == nil {
		cw.werr = err
	}
	return n, err
}

func (cw *ChecksumWriter) Close() error {
	if cw.closed {
		return nil
	}
	cw.closed = true
	err := cw.w.Close()
	if cw.werr != nil {
		err = cw.werr
	}
	return cw.commit(cw.h.Digest(), err)
}

// Checksum reads an object and returns its hex SHA-256, used by the
// rule engine's integrity audits.
func (l *Layer) Checksum(path string) (string, error) {
	r, err := l.Open(path)
	if err != nil {
		return "", err
	}
	defer r.Close()
	d, err := Transfer(context.TODO(), io.Discard, r, Digest{})
	if err != nil {
		return "", err
	}
	return d.Sum, nil
}

// CopyObject copies one object across mounts (replication action).
// The copy is streamed block by block through a pooled buffer — the
// object never materializes in memory — and a failed copy removes the
// partial destination, so callers never observe a half-written
// replica.
func (l *Layer) CopyObject(src, dst string) error {
	_, err := l.CopyObjectChecksummed(src, dst)
	return err
}

// CopyObjectChecksummed is CopyObject returning the digest of the
// copied content — size, SHA-256 and checkpoint chain — so replication
// callers can record the new replica without a second read.
func (l *Layer) CopyObjectChecksummed(src, dst string) (Digest, error) {
	r, err := l.Open(src)
	if err != nil {
		return Digest{}, err
	}
	defer r.Close()
	d, err := l.writeDigest(dst, r)
	if err != nil {
		return Digest{}, fmt.Errorf("adal: copying %s: %w", src, err)
	}
	return d, nil
}
