// Package durafs is the injectable filesystem seam under the
// metadata store's durability machinery (WAL + snapshots). Every
// byte the store persists flows through an FS, so the whole
// crash-consistency story becomes deterministically testable: the
// production implementation (OS) is a thin veneer over the os
// package, while MemFS models a disk with an explicit synced/
// unsynced boundary and Fault wraps any FS with programmable crash
// points, torn writes and failed fsyncs.
//
// The durability model the interfaces encode is the POSIX one that
// WAL implementations actually rely on:
//
//   - Write buffers; nothing is promised until Sync returns.
//   - A crash may keep any prefix of the unsynced writes to a file,
//     and may tear the last surviving write at an arbitrary byte.
//   - Rename is atomic: after a crash the name refers to either the
//     old or the new file, never a mix — but the *contents* of the
//     renamed file only include its synced bytes, which is why a
//     snapshot must Sync before Rename.
//   - Directory entries created by Create/Rename are durable only
//     after SyncDir on the parent.
//
// MemFS implements exactly that model; Crash() collapses it to what
// a real disk would hold after power loss, so a test can "kill" the
// store at any injected point and recover from the survivors.
// The object store (adal.FSBackend) commits its objects through the same
// seam, by the snapshot install's sequence.
package durafs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Errors returned by fault-injecting implementations. Production
// code never sees them outside tests, but the store treats any FS
// error on the WAL path as fail-stop, so they flow through the same
// typed-error plumbing as real I/O failures.
var (
	// ErrCrashed is returned by every operation on a Fault FS after
	// its crash point fired: the simulated process is dead.
	ErrCrashed = errors.New("durafs: filesystem crashed")
	// ErrInjectedSync is the failure a scheduled bad fsync returns.
	ErrInjectedSync = errors.New("durafs: injected sync failure")
	// ErrInjectedWrite is the failure a scheduled torn write returns
	// after persisting only a prefix of the buffer.
	ErrInjectedWrite = errors.New("durafs: injected short write")
)

// File is one open file. Writes append or overwrite at the current
// position depending on how the file was opened; the store only ever
// appends (WAL) or writes fresh files front-to-back (snapshots).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Seek moves the read position (the object store's ranged reads).
	io.Seeker
	// Sync makes every byte written so far durable.
	Sync() error
	// Truncate cuts the file to size bytes (used to drop a torn WAL
	// tail before appending resumes).
	Truncate(size int64) error
	// Size returns the current file length in bytes.
	Size() (int64, error)
}

// FS is the filesystem surface the durability layer needs. Paths use
// forward slashes; implementations may map them onto a host
// filesystem (OS) or an in-memory tree (MemFS).
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Open opens name read-only, positioned at byte 0.
	Open(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes dir's entries (creates and renames) durable.
	SyncDir(dir string) error
	// Stat describes the file name. A directory is not a file: its
	// Stat fails with fs.ErrNotExist.
	Stat(name string) (Info, error)
	// Walk describes every file under dir, at any depth, in no
	// particular order; a file removed mid-walk is left out.
	Walk(dir string) ([]Info, error)
}

// Info describes one file.
type Info struct {
	Name    string // as given to Stat; under Walk, dir joined with the file's path below it
	Size    int64
	ModTime time.Time
}

// OS returns the production FS: a pass-through to the os package.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) Stat(name string) (Info, error) {
	st, err := os.Stat(name)
	if err == nil && st.IsDir() {
		err = &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	if err != nil {
		return Info{}, err
	}
	return Info{Name: name, Size: st.Size(), ModTime: st.ModTime()}, nil
}

func (osFS) Walk(dir string) ([]Info, error) {
	var out []Info
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var st fs.FileInfo
			if st, err = d.Info(); err == nil {
				out = append(out, Info{Name: filepath.ToSlash(p), Size: st.Size(), ModTime: st.ModTime()})
			}
		}
		if errors.Is(err, fs.ErrNotExist) && p != dir {
			return nil
		}
		return err
	})
	return out, err
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
