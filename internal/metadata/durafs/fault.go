package durafs

import (
	"math/rand"
	"sync"
)

// Fault wraps a MemFS with programmable failure injection. Three
// knobs cover the crash-consistency test matrix:
//
//   - CrashAfterOps(n): the n-th subsequent I/O operation fires the
//     crash point — the underlying MemFS crashes (unsynced data is
//     dropped or torn per the configured rng) and every operation
//     from then on, including on already-open handles, returns
//     ErrCrashed. This simulates the process dying mid-write.
//   - FailSyncs(k): the next k Sync calls return ErrInjectedSync
//     without promoting any bytes — the disk said no, the process
//     lives. The store must turn this into a typed error, not silent
//     loss.
//   - TearNextWrite(): the next Write persists only a prefix of its
//     buffer and returns ErrInjectedWrite — a short write the caller
//     must handle.
//
// The zero injection state is a transparent pass-through, so one
// Fault can serve a whole test run with points armed between phases.
type Fault struct {
	inner *MemFS

	mu        sync.Mutex
	rng       *rand.Rand
	ops       int64
	crashAt   int64 // fire the crash point when ops reaches this; 0 = disarmed
	crashed   bool
	failSyncs int
	tearWrite bool
}

// NewFault wraps inner. rng drives torn-write decisions at the crash
// point; nil means clean crashes (synced bytes only).
func NewFault(inner *MemFS, rng *rand.Rand) *Fault {
	return &Fault{inner: inner, rng: rng}
}

// Inner returns the wrapped MemFS — after a crash, open a fresh
// store on it (or on a new Fault around it) to exercise recovery.
func (f *Fault) Inner() *MemFS { return f.inner }

// CrashAfterOps arms the crash point n operations from now (n >= 1).
func (f *Fault) CrashAfterOps(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.ops + n
}

// FailSyncs makes the next k Sync calls fail with ErrInjectedSync.
func (f *Fault) FailSyncs(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = k
}

// TearNextWrite makes the next Write persist only a prefix and fail.
func (f *Fault) TearNextWrite() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearWrite = true
}

// Crashed reports whether the crash point has fired.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Ops returns the operation count so far, so a harness can size the
// crash-point window for a follow-up run.
func (f *Fault) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// step counts one operation and fires the crash point when armed.
// It returns ErrCrashed once the FS is dead.
func (f *Fault) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		f.inner.Crash(f.rng)
		return ErrCrashed
	}
	return nil
}

func (f *Fault) MkdirAll(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *Fault) Create(name string) (File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	h, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) OpenAppend(name string) (File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	h, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) Open(name string) (File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	h, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, h: h}, nil
}

func (f *Fault) Rename(oldname, newname string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

func (f *Fault) Remove(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Fault) ReadDir(dir string) ([]string, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *Fault) SyncDir(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

func (f *Fault) Stat(name string) (Info, error) {
	if err := f.step(); err != nil {
		return Info{}, err
	}
	return f.inner.Stat(name)
}

func (f *Fault) Walk(dir string) ([]Info, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.inner.Walk(dir)
}

// faultFile consults the shared fault state on every operation, so a
// handle opened before the crash point dies with the filesystem.
type faultFile struct {
	f *Fault
	h File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.f.step(); err != nil {
		return 0, err
	}
	return ff.h.Read(p)
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := ff.f.step(); err != nil {
		return 0, err
	}
	return ff.h.Seek(offset, whence)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.f.step(); err != nil {
		return 0, err
	}
	ff.f.mu.Lock()
	tear := ff.f.tearWrite
	ff.f.tearWrite = false
	ff.f.mu.Unlock()
	if tear && len(p) > 0 {
		keep := len(p) / 2
		if ff.f.rng != nil {
			keep = ff.f.rng.Intn(len(p))
		}
		n, _ := ff.h.Write(p[:keep])
		return n, ErrInjectedWrite
	}
	return ff.h.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.f.step(); err != nil {
		return err
	}
	ff.f.mu.Lock()
	fail := ff.f.failSyncs > 0
	if fail {
		ff.f.failSyncs--
	}
	ff.f.mu.Unlock()
	if fail {
		return ErrInjectedSync
	}
	err := ff.h.Sync()
	if ff.f.Crashed() {
		// The crash point fired on another goroutine while this sync was
		// in flight, and may have dropped the bytes before they were
		// promoted: the dead process never learns the outcome.
		return ErrCrashed
	}
	return err
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.f.step(); err != nil {
		return err
	}
	return ff.h.Truncate(size)
}

func (ff *faultFile) Size() (int64, error) {
	if err := ff.f.step(); err != nil {
		return 0, err
	}
	return ff.h.Size()
}

func (ff *faultFile) Close() error {
	// Closing is free: a dead process's handles are closed by the OS.
	return ff.h.Close()
}
