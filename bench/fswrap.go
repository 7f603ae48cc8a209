package main

import (
	"strings"
	"sync"
	"time"

	"repro/internal/metadata/durafs"
)

// timedFS wraps a durafs.FS and counts and times what the metadata
// store's durability plane does to it: every Write and every Sync,
// split into WAL files and snapshot files. It is how the benchmark
// sees fsyncs per batch and WAL bytes per dataset from outside the
// metadata package.
type timedFS struct {
	durafs.FS

	mu sync.Mutex
	fsCounts

	// onWAL, when set, is told about every WAL write and sync so the
	// traced pass can record them as child spans.
	onWAL func(kind string, start time.Time, d time.Duration)
}

// fsCounts is what a timedFS has seen so far.
type fsCounts struct {
	walWrites, walBytes, walWriteNs, snapBytes int64
	syncDurs                                   []float64 // one per WAL fsync, ns
}

func (t *timedFS) counts() fsCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fsCounts
}

// hook sets the WAL observer.
func (t *timedFS) hook(fn func(kind string, start time.Time, d time.Duration)) {
	t.mu.Lock()
	t.onWAL = fn
	t.mu.Unlock()
}

func (t *timedFS) wrap(name string, f durafs.File, err error) (durafs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, wal: strings.HasSuffix(name, ".wal")}, nil
}

func (t *timedFS) Create(name string) (durafs.File, error) {
	f, err := t.FS.Create(name)
	return t.wrap(name, f, err)
}

func (t *timedFS) OpenAppend(name string) (durafs.File, error) {
	f, err := t.FS.OpenAppend(name)
	return t.wrap(name, f, err)
}

type timedFile struct {
	durafs.File
	fs  *timedFS
	wal bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	t := f.fs
	t.mu.Lock()
	if f.wal {
		t.walWrites++
		t.walBytes += int64(n)
		t.walWriteNs += int64(d)
	} else {
		t.snapBytes += int64(n)
	}
	hook := t.onWAL
	t.mu.Unlock()
	if f.wal && hook != nil {
		hook("metadata.wal.write", start, d)
	}
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	t := f.fs
	t.mu.Lock()
	if f.wal {
		t.syncDurs = append(t.syncDurs, float64(d))
	}
	hook := t.onWAL
	t.mu.Unlock()
	if f.wal && hook != nil {
		hook("metadata.wal.fsync", start, d)
	}
	return err
}
