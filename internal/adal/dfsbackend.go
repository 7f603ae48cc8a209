package adal

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/dfs"
	"repro/internal/obs"
)

// DFSBackend exposes the Hadoop filesystem through the ADAL contract,
// which is how the paper's DataBrowser reaches HDFS data without
// Hadoop-specific client code.
type DFSBackend struct {
	name    string
	cluster *dfs.Cluster
	// hint names the datanode ADAL traffic is considered to enter
	// through (the login head nodes in the paper's architecture).
	hint string
}

// NewDFSBackend wraps a dfs cluster.
func NewDFSBackend(name string, cluster *dfs.Cluster, clientHint string) *DFSBackend {
	return &DFSBackend{name: name, cluster: cluster, hint: clientHint}
}

// Name implements Backend.
func (b *DFSBackend) Name() string { return b.name }

// Create implements Backend.
func (b *DFSBackend) Create(path string) (io.WriteCloser, error) {
	w, err := b.cluster.Create(path, b.hint)
	if err != nil {
		if errors.Is(err, dfs.ErrExists) {
			return nil, fmt.Errorf("%w: %s:%s", ErrExists, b.name, path)
		}
		return nil, err
	}
	return w, nil
}

// Open implements Backend.
func (b *DFSBackend) Open(path string) (io.ReadCloser, error) {
	r, err := b.cluster.Open(path, b.hint)
	if err != nil {
		if errors.Is(err, dfs.ErrNotFound) || errors.Is(err, dfs.ErrIncomplete) {
			return nil, fmt.Errorf("%w: %s:%s", ErrNotFound, b.name, path)
		}
		return nil, err
	}
	return r, nil
}

// OpenRange implements RangeOpener: a traced caller gets a dfs.open
// span timing replica selection, stream setup and the seek.
func (b *DFSBackend) OpenRange(ctx context.Context, path string, off, n int64) (io.ReadCloser, error) {
	sp := obs.StartSpan(ctx, "dfs.open")
	sp.Annotate("%s:%s", b.name, path)
	defer sp.End()
	r, err := b.Open(path)
	if err != nil {
		return nil, err
	}
	return ranged(r, off, n)
}

// Stat implements Backend, including the file's modification time —
// migration policies order candidates oldest-first, so a zero mtime
// here would make every DFS-backed file look infinitely old.
func (b *DFSBackend) Stat(path string) (FileInfo, error) {
	info, err := b.cluster.Stat(path)
	if err != nil || !info.Complete { // a file still being written is not an object yet
		if err == nil || errors.Is(err, dfs.ErrNotFound) {
			return FileInfo{}, fmt.Errorf("%w: %s:%s", ErrNotFound, b.name, path)
		}
		return FileInfo{}, err
	}
	return FileInfo{Path: path, Size: info.Size, ModTime: info.ModTime}, nil
}

// List implements Backend with the same FileInfo conventions as
// FSBackend: complete objects only (an open file is not yet readable
// through the cluster), carrying size and modification time.
func (b *DFSBackend) List(prefix string) ([]FileInfo, error) {
	infos := b.cluster.List(prefix)
	out := make([]FileInfo, 0, len(infos))
	for _, info := range infos {
		if !info.Complete {
			continue
		}
		out = append(out, FileInfo{Path: info.Name, Size: info.Size, ModTime: info.ModTime})
	}
	return out, nil
}

// Remove implements Backend.
func (b *DFSBackend) Remove(path string) error {
	if err := b.cluster.Delete(path); err != nil {
		if errors.Is(err, dfs.ErrNotFound) {
			return fmt.Errorf("%w: %s:%s", ErrNotFound, b.name, path)
		}
		return err
	}
	return nil
}
