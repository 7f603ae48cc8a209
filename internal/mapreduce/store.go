package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"time"

	"repro/internal/dfs"
	"repro/internal/mrpc"
)

// Store is the storage surface a task runtime needs: open-for-read
// with random access, create-stream, delete, and rename-to-commit.
// In-process workers bind it straight to the *dfs.Cluster; a worker
// in another process binds it to the master's DFS proxy, so task
// code never knows which side of the network its blocks live on.
type Store interface {
	Open(name, hint string) (File, error)
	Create(name, hint string) (io.WriteCloser, error)
	Delete(name string) error
	Rename(oldName, newName string) error
	Stat(name string) (size int64, err error)
}

// File is a readable handle with random access, the subset of
// dfs.FileReader the merge cursors and record readers use.
type File interface {
	io.ReadCloser
	io.ReaderAt
	io.Seeker
}

// dfsStore adapts *dfs.Cluster to Store.
type dfsStore struct{ c *dfs.Cluster }

// NewDFSStore wraps a cluster as a task-runtime Store.
func NewDFSStore(c *dfs.Cluster) Store { return dfsStore{c} }

func (s dfsStore) Open(name, hint string) (File, error) { return s.c.Open(name, hint) }
func (s dfsStore) Create(name, hint string) (io.WriteCloser, error) {
	return s.c.Create(name, hint)
}
func (s dfsStore) Delete(name string) error             { return s.c.Delete(name) }
func (s dfsStore) Rename(oldName, newName string) error { return s.c.Rename(oldName, newName) }
func (s dfsStore) Stat(name string) (int64, error) {
	info, err := s.c.Stat(name)
	if err != nil {
		return 0, err
	}
	return int64(info.Size), nil
}

// IsNotFound reports whether err means the file does not exist, on
// either side of the proxy boundary.
func IsNotFound(err error) bool {
	return errors.Is(err, dfs.ErrNotFound) || errors.Is(err, mrpc.ErrNotFound)
}

// proxyStore reaches the master's DFS through its /dfsproxy/v1
// endpoints — the storage path for out-of-process lsdf-worker
// runtimes. Reads are ranged GETs; the bufio layers above (record
// readers, merge cursors) keep the request count per task small.
// Every op derives from the worker's lifecycle context, so shutdown
// aborts in-flight proxy I/O; ranged reads additionally carry a
// per-request deadline so a hung master can't wedge a task forever.
type proxyStore struct {
	c   *mrpc.Client
	ctx context.Context
}

// proxyReadTimeout bounds one ranged proxy read or segment fetch —
// the per-request cap the old client-wide 30s timeout provided.
const proxyReadTimeout = 30 * time.Second

// NewProxyStore returns a Store served by the DFS proxy at the
// master base URL. ctx scopes every call the store makes; cancel it
// to abort in-flight proxy I/O.
func NewProxyStore(ctx context.Context, masterURL string) Store {
	if ctx == nil {
		ctx = context.Background()
	}
	return proxyStore{c: mrpc.NewClient(masterURL), ctx: ctx}
}

func (s proxyStore) Stat(name string) (int64, error) {
	var rep mrpc.StatReply
	if err := s.c.Call(s.ctx, mrpc.PathProxyStat, struct {
		Name string `json:"name"`
	}{name}, &rep); err != nil {
		return 0, err
	}
	return rep.Size, nil
}

func (s proxyStore) Open(name, hint string) (File, error) {
	size, err := s.Stat(name)
	if err != nil {
		return nil, err
	}
	return &proxyFile{s: s, name: name, hint: hint, size: size}, nil
}

func (s proxyStore) Create(name, hint string) (io.WriteCloser, error) {
	pr, pw := io.Pipe()
	pf := &proxyWriter{pw: pw, done: make(chan error, 1)}
	go func() {
		q := url.Values{"name": {name}, "hint": {hint}}
		// Cancel-only: the upload runs as long as the data does.
		err := s.c.Put(s.ctx, mrpc.PathProxyCreate+"?"+q.Encode(), pr)
		_ = pr.CloseWithError(err)
		pf.done <- err
	}()
	return pf, nil
}

func (s proxyStore) Delete(name string) error {
	return s.c.Call(s.ctx, mrpc.PathProxyDelete, struct {
		Name string `json:"name"`
	}{name}, nil)
}

func (s proxyStore) Rename(oldName, newName string) error {
	return s.c.Call(s.ctx, mrpc.PathProxyRename, struct {
		Old string `json:"old"`
		New string `json:"new"`
	}{oldName, newName}, nil)
}

// proxyWriter streams a create through a pipe; Close waits for the
// proxy's verdict so acknowledged writes are really on the DFS.
type proxyWriter struct {
	pw   *io.PipeWriter
	done chan error
}

func (w *proxyWriter) Write(p []byte) (int, error) { return w.pw.Write(p) }
func (w *proxyWriter) Close() error {
	_ = w.pw.Close()
	return <-w.done
}

// proxyFile satisfies File over ranged proxy reads.
type proxyFile struct {
	s    proxyStore
	name string
	hint string
	size int64
	pos  int64
}

func (f *proxyFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.size {
		return 0, io.EOF
	}
	n := int64(len(p))
	if off+n > f.size {
		n = f.size - off
	}
	q := url.Values{
		"name": {f.name},
		"hint": {f.hint},
		"off":  {strconv.FormatInt(off, 10)},
		"len":  {strconv.FormatInt(n, 10)},
	}
	ctx, cancel := context.WithTimeout(f.s.ctx, proxyReadTimeout)
	defer cancel()
	body, err := f.s.c.Get(ctx, mrpc.PathProxyRead+"?"+q.Encode())
	if err != nil {
		return 0, err
	}
	defer body.Close()
	got, err := io.ReadFull(body, p[:n])
	if err != nil {
		return got, err
	}
	if int64(got) < int64(len(p)) {
		return got, io.EOF
	}
	return got, nil
}

func (f *proxyFile) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.pos)
	f.pos += int64(n)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

func (f *proxyFile) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		f.pos = f.size + offset
	default:
		return 0, fmt.Errorf("mapreduce: bad whence %d", whence)
	}
	if f.pos < 0 {
		return 0, fmt.Errorf("mapreduce: negative seek")
	}
	return f.pos, nil
}

func (f *proxyFile) Close() error { return nil }

// openSources appends to srcs a cursor over partition p's non-empty
// segment of each of a map task's runs, with the (task, run) tie-break
// the merge's determinism relies on: fetched whole (remote bytes) from
// the shuffle server of the worker that wrote the run if it has one,
// streamed from the run file on the store otherwise or if that fails.
// On an error, what was opened is still returned, for the caller to close.
func openSources(ctx context.Context, store Store, runs []mrpc.RunRef, task, p int, hint string, srcs []mergeSource) (_ []mergeSource, remote int64, err error) {
	for ri, run := range runs {
		if p >= len(run.Segs) {
			continue
		}
		var cur *spillCursor
		if seg := run.Segs[p]; run.Addr != "" && seg.Records > 0 {
			if data, ferr := fetchRemoteSegment(ctx, run, seg); ferr == nil {
				cur, remote = &spillCursor{buf: data, left: seg.Records, file: run.File}, remote+seg.Len
			}
		}
		if cur == nil {
			if cur, err = openSpillCursor(store, run.File, run.Segs[p], hint); err != nil {
				return srcs, remote, err
			}
		}
		if cur != nil {
			srcs = append(srcs, mergeSource{s: cur, task: task, run: ri})
		}
	}
	return srcs, remote, nil
}

func fetchRemoteSegment(ctx context.Context, run mrpc.RunRef, seg mrpc.SegRef) ([]byte, error) {
	c := mrpc.NewClient("http://" + run.Addr)
	q := url.Values{
		"file": {run.File},
		"off":  {strconv.FormatInt(seg.Off, 10)},
		"len":  {strconv.FormatInt(seg.Len, 10)},
	}
	ctx, cancel := context.WithTimeout(ctx, proxyReadTimeout)
	defer cancel()
	body, err := c.Get(ctx, mrpc.PathSegment+"?"+q.Encode())
	if err != nil {
		return nil, err
	}
	defer body.Close()
	data := make([]byte, seg.Len)
	if _, err := io.ReadFull(body, data); err != nil {
		return nil, err
	}
	return data, nil
}
