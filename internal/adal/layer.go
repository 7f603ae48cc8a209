package adal

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
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

// Unmount detaches the backend at prefix (exact match, after the
// same normalization Mount applies). In-flight operations that
// already resolved keep their backend; subsequent resolutions fall
// through to the next-longest mount.
func (l *Layer) Unmount(prefix string) error {
	if !strings.HasPrefix(prefix, "/") {
		return fmt.Errorf("adal: unmount prefix %q must be absolute", prefix)
	}
	prefix = strings.TrimRight(prefix, "/")
	if prefix == "" {
		prefix = "/"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, m := range l.mounts {
		if m.prefix == prefix {
			l.mounts = append(l.mounts[:i], l.mounts[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrNoMount, prefix)
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
	b, rel, err := l.Resolve(path)
	if err != nil {
		return nil, err
	}
	return b.Open(rel)
}

// CtxOpener is the structural upgrade a backend implements to see
// the caller's context (trace spans, cancellation) on reads. The
// Backend interface itself stays context-free — most backends are
// local and synchronous — but the read cache and the federated
// replica backend record where WAN time goes.
type CtxOpener interface {
	OpenCtx(ctx context.Context, path string) (io.ReadCloser, error)
}

// OpenCtx is Open with a context: backends that implement CtxOpener
// receive it (and with it the request's trace), others are opened
// plainly. Untraced callers can keep using Open — the two paths
// return identical bytes.
func (l *Layer) OpenCtx(ctx context.Context, path string) (io.ReadCloser, error) {
	b, rel, err := l.Resolve(path)
	if err != nil {
		return nil, err
	}
	if co, ok := b.(CtxOpener); ok {
		return co.OpenCtx(ctx, rel)
	}
	return b.Open(rel)
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

// copyBufPool recycles transfer buffers across concurrent ingest
// workers and audits. io.CopyBuffer skips the buffer entirely when
// the source implements io.WriterTo (the DFS reader does, streaming
// block by block), so the pool only pays for backends without one.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 256*1024)
		return &b
	},
}

func pooledCopy(dst io.Writer, src io.Reader) (int64, error) {
	bp := copyBufPool.Get().(*[]byte)
	n, err := io.CopyBuffer(dst, src, *bp)
	copyBufPool.Put(bp)
	return n, err
}

// PooledCopy is io.Copy through the shared transfer-buffer pool: when
// neither end short-circuits the buffer (src is a WriterTo or dst a
// ReaderFrom), the 256 KiB staging buffer is recycled instead of
// allocated per copy. Read-path consumers (federated reads, cache
// fills, verify hashes) use it so sustained read traffic stops
// churning the allocator.
func PooledCopy(dst io.Writer, src io.Reader) (int64, error) {
	return pooledCopy(dst, src)
}

// WriteChecksummed streams r into path, returning the byte count and
// hex SHA-256 — the ingest pipeline's canonical write primitive. When
// the copy fails, the part already written is removed (if Close
// committed it): a half-written object is never left behind.
func (l *Layer) WriteChecksummed(path string, r io.Reader) (units.Bytes, string, error) {
	w, err := l.Create(path)
	if err != nil {
		return 0, "", err
	}
	h := sha256.New()
	n, err := pooledCopy(io.MultiWriter(w, h), r)
	if err != nil {
		if w.Close() == nil {
			_ = l.Remove(path)
		}
		return 0, "", fmt.Errorf("adal: writing %s: %w", path, err)
	}
	if err := w.Close(); err != nil {
		return 0, "", err
	}
	return units.Bytes(n), hex.EncodeToString(h.Sum(nil)), nil
}

// NewChecksumWriter wraps w so every written byte is SHA-256-hashed
// in passing; Close closes w and then hands (bytes, hex digest,
// close error) to commit, whose return value becomes Close's result.
// A failed Write is sticky: Close reports it to commit in place of the
// close error, so a stream that lost bytes is never committed as whole.
// It is the streaming-writer dual of WriteChecksummed, used by
// backends that must register a content hash at commit time.
func NewChecksumWriter(w io.WriteCloser, commit func(n units.Bytes, sum string, err error) error) io.WriteCloser {
	return &checksumWriter{w: w, h: sha256.New(), commit: commit}
}

type checksumWriter struct {
	w      io.WriteCloser
	h      hash.Hash
	n      int64
	werr   error // first failed Write
	commit func(units.Bytes, string, error) error
	closed bool
}

func (cw *checksumWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.h.Write(p[:n])
	cw.n += int64(n)
	if err != nil && cw.werr == nil {
		cw.werr = err
	}
	return n, err
}

func (cw *checksumWriter) Close() error {
	if cw.closed {
		return nil
	}
	cw.closed = true
	err := cw.w.Close()
	if cw.werr != nil {
		err = cw.werr
	}
	return cw.commit(units.Bytes(cw.n), hex.EncodeToString(cw.h.Sum(nil)), err)
}

// Checksum reads an object and returns its hex SHA-256, used by the
// rule engine's integrity audits.
func (l *Layer) Checksum(path string) (string, error) {
	r, err := l.Open(path)
	if err != nil {
		return "", err
	}
	defer r.Close()
	h := sha256.New()
	if _, err := pooledCopy(h, r); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CopyObject copies one object across mounts (replication action).
// The copy is streamed chunk by chunk through a pooled buffer — the
// object never materializes in memory — and a failed copy removes the
// partial destination, so callers never observe a half-written
// replica.
func (l *Layer) CopyObject(src, dst string) error {
	_, _, err := l.CopyObjectChecksummed(src, dst)
	return err
}

// CopyObjectChecksummed is CopyObject returning the byte count and
// the hex SHA-256 of the copied content, so replication callers can
// verify the new replica against the catalog without a second read.
func (l *Layer) CopyObjectChecksummed(src, dst string) (units.Bytes, string, error) {
	r, err := l.Open(src)
	if err != nil {
		return 0, "", err
	}
	defer r.Close()
	w, err := l.Create(dst)
	if err != nil {
		return 0, "", err
	}
	h := sha256.New()
	n, err := pooledCopy(io.MultiWriter(w, h), r)
	if err == nil {
		err = w.Close()
	} else {
		w.Close()
	}
	if err != nil {
		_ = l.Remove(dst) // best effort: never leave a partial replica
		return 0, "", fmt.Errorf("adal: copying %s -> %s: %w", src, dst, err)
	}
	return units.Bytes(n), hex.EncodeToString(h.Sum(nil)), nil
}

// ParseURI splits "lsdf://host/path" into its host and federated
// path. The paper exposes LSDF through open protocols; this is the
// address form used by the DataBrowser and CLI tools.
func ParseURI(uri string) (host, path string, err error) {
	const scheme = "lsdf://"
	if !strings.HasPrefix(uri, scheme) {
		return "", "", fmt.Errorf("adal: URI %q lacks lsdf:// scheme", uri)
	}
	rest := strings.TrimPrefix(uri, scheme)
	host, path, ok := strings.Cut(rest, "/")
	if !ok || host == "" {
		return "", "", fmt.Errorf("adal: URI %q lacks host or path", uri)
	}
	return host, "/" + path, nil
}
