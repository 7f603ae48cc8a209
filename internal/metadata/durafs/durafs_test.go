package durafs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"testing"
)

func readAll(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

// TestMemFSCrashDropsUnsynced is the core durability model: synced
// bytes survive a crash, unsynced bytes do not.
func TestMemFSCrashDropsUnsynced(t *testing.T) {
	m := NewMem()
	f, err := m.OpenAppend("/wal/shard-000.wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	// Before the crash, reads see everything (page-cache semantics).
	if got := string(readAll(t, m, "/wal/shard-000.wal")); got != "durablevolatile" {
		t.Fatalf("pre-crash contents = %q", got)
	}
	m.Crash(nil)
	if got := string(readAll(t, m, "/wal/shard-000.wal")); got != "durable" {
		t.Fatalf("post-crash contents = %q, want only synced bytes", got)
	}
}

// TestMemFSTornCrashKeepsPrefix: with an rng, a crash may keep a
// prefix of the unsynced extents and tear the last one — but never
// reorders and never invents bytes.
func TestMemFSTornCrashKeepsPrefix(t *testing.T) {
	full := "durable" + "aaaa" + "bbbb" + "cccc"
	for seed := int64(0); seed < 50; seed++ {
		m := NewMem()
		f, _ := m.OpenAppend("/f")
		f.Write([]byte("durable"))
		f.Sync()
		f.Write([]byte("aaaa"))
		f.Write([]byte("bbbb"))
		f.Write([]byte("cccc"))
		m.Crash(rand.New(rand.NewSource(seed)))
		got := string(readAll(t, m, "/f"))
		if len(got) < len("durable") || got != full[:len(got)] {
			t.Fatalf("seed %d: post-crash %q is not a prefix of %q", seed, got, full)
		}
	}
}

// TestMemFSRenameKeepsSyncState: renaming a file with unsynced bytes
// must not launder them into durability — the snapshot-without-sync
// bug class.
func TestMemFSRenameKeepsSyncState(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("/snap.tmp")
	f.Write([]byte("synced"))
	f.Sync()
	f.Write([]byte("tail"))
	f.Close()
	if err := m.Rename("/snap.tmp", "/snap"); err != nil {
		t.Fatal(err)
	}
	m.Crash(nil)
	if got := string(readAll(t, m, "/snap")); got != "synced" {
		t.Fatalf("post-crash renamed file = %q, want %q", got, "synced")
	}
	if _, err := m.Open("/snap.tmp"); err == nil {
		t.Fatal("old name still present after rename")
	}
}

// TestFaultCrashPoint: after the armed operation count, everything —
// including previously opened handles — returns ErrCrashed.
func TestFaultCrashPoint(t *testing.T) {
	ff := NewFault(NewMem(), nil)
	f, err := ff.OpenAppend("/wal") // op 1
	if err != nil {
		t.Fatal(err)
	}
	ff.CrashAfterOps(2)
	if _, err := f.Write([]byte("a")); err != nil { // op 2
		t.Fatalf("write before crash point: %v", err)
	}
	if _, err := f.Write([]byte("b")); !errors.Is(err, ErrCrashed) { // op 3 fires
		t.Fatalf("write at crash point: err = %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: err = %v, want ErrCrashed", err)
	}
	if _, err := ff.Open("/wal"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: err = %v, want ErrCrashed", err)
	}
	if !ff.Crashed() {
		t.Fatal("Crashed() = false after crash point fired")
	}
	// The wrapped MemFS survives for recovery: no synced bytes here.
	if got := readAll(t, ff.Inner(), "/wal"); len(got) != 0 {
		t.Fatalf("unsynced write survived crash: %q", got)
	}
}

// TestFaultFailSyncs: injected fsync failures return the typed error
// and promote nothing.
func TestFaultFailSyncs(t *testing.T) {
	ff := NewFault(NewMem(), nil)
	f, _ := ff.OpenAppend("/wal")
	f.Write([]byte("x"))
	ff.FailSyncs(1)
	if err := f.Sync(); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("sync = %v, want ErrInjectedSync", err)
	}
	ff.Inner().Crash(nil)
	if got := readAll(t, ff.Inner(), "/wal"); len(got) != 0 {
		t.Fatalf("failed sync still promoted bytes: %q", got)
	}
}

// TestFaultTearNextWrite: a torn write persists only a prefix and
// reports the typed error.
func TestFaultTearNextWrite(t *testing.T) {
	ff := NewFault(NewMem(), rand.New(rand.NewSource(7)))
	f, _ := ff.OpenAppend("/wal")
	ff.TearNextWrite()
	n, err := f.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("write = %v, want ErrInjectedWrite", err)
	}
	if n >= 10 {
		t.Fatalf("torn write persisted %d bytes, want < 10", n)
	}
	f.Sync()
	got := readAll(t, ff.Inner(), "/wal")
	if string(got) != "0123456789"[:n] {
		t.Fatalf("persisted %q, want the reported %d-byte prefix", got, n)
	}
}

// TestMemFSTruncate covers the recovery path's torn-tail drop.
func TestMemFSTruncate(t *testing.T) {
	m := NewMem()
	f, _ := m.OpenAppend("/wal")
	f.Write([]byte("keepDROP"))
	f.Sync()
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if got := string(readAll(t, m, "/wal")); got != "keep" {
		t.Fatalf("after truncate: %q", got)
	}
	sz, _ := f.Size()
	if sz != 4 {
		t.Fatalf("size = %d, want 4", sz)
	}
}

// block is the unit objects are written to MemFS in: adal.ChainBlock,
// what adal.Transfer writes at a time.
const block = 64 << 10

// TestMemFSReadsInPlace: a synced 2 MiB file written a block at a time
// and read in 256 KiB reads, each spanning four of its extents, is
// served from its durable bytes, allocating nothing per Read, and Sync
// kept exactly those bytes.
func TestMemFSReadsInPlace(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("/obj")
	chunk := make([]byte, block)
	for i := 0; i < 32; i++ {
		chunk[0] = byte(i)
		f.Write(chunk)
	}
	f.Sync()
	mf := m.files["/obj"]
	held := 0
	for _, e := range mf.ext[:mf.synced] {
		held += cap(e)
	}
	if mf.synced != len(mf.ext) || held != 2<<20 {
		t.Fatalf("%d of %d extents durable, holding %d bytes of capacity for 2 MiB", mf.synced, len(mf.ext), held)
	}
	r, _ := m.Open("/obj")
	buf := make([]byte, 4*block)
	allocs := testing.AllocsPerRun(20, func() {
		r.Seek(0, io.SeekStart)
		for i := 0; i < 8; i++ {
			n, err := r.Read(buf)
			if n != len(buf) || err != nil {
				t.Fatalf("read %d: %d bytes, err %v", i, n, err)
			}
			for k := 0; k < 4; k++ {
				if buf[k*block] != byte(4*i+k) {
					t.Fatalf("read %d: block %d starts with %d", i, k, buf[k*block])
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 2 MiB read, want 0", allocs)
	}
}

// TestMemFSFirstSyncCopiesNothing: an object written as four blocks is
// made durable by its first Sync without a copy or an allocation, and
// reads back byte for byte after a crash; appending to it afterwards,
// as a log does, coalesces it and loses nothing synced.
func TestMemFSFirstSyncCopiesNothing(t *testing.T) {
	const runs = 10
	m := NewMem()
	want := make([]byte, 4*block)
	rand.New(rand.NewSource(1)).Read(want)
	var files []File
	for i := 0; i <= runs; i++ { // AllocsPerRun calls once more to warm up
		f, _ := m.Create(fmt.Sprintf("/obj%d", i))
		for k := 0; k < 4; k++ {
			f.Write(want[k*block : (k+1)*block])
		}
		files = append(files, f)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := files[next].Sync(); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per four-extent first Sync, want 0", allocs)
	}
	files[0].Write([]byte("tail"))
	files[0].Sync()
	files[1].Write([]byte("lost"))
	m.Crash(nil)
	for i := range files {
		got, exp := readAll(t, m, fmt.Sprintf("/obj%d", i)), want
		if i == 0 {
			exp = append(want[:len(want):len(want)], "tail"...)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("/obj%d: read back %d bytes that differ from the %d synced", i, len(got), len(exp))
		}
	}
}

// TestStatWalkSeek: what the object store reads through, on MemFS and
// on the OS, and each call is a crash point under Fault.
func TestStatWalkSeek(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		fs   FS
		root string
	}{{NewMem(), ""}, {OS(), dir}} {
		tc.fs.MkdirAll(tc.root + "/a/b")
		for _, name := range []string{"/a/x", "/a/b/y"} {
			f, _ := tc.fs.Create(tc.root + name)
			f.Write([]byte("0123456789"))
			f.Close()
		}
		if st, err := tc.fs.Stat(tc.root + "/a/x"); err != nil || st.Size != 10 || st.ModTime.IsZero() {
			t.Fatalf("stat = %+v, %v", st, err)
		}
		if _, err := tc.fs.Stat(tc.root + "/a/b"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("stat of a directory err = %v, want ErrNotExist", err)
		}
		infos, err := tc.fs.Walk(tc.root + "/a")
		if err != nil || len(infos) != 2 {
			t.Fatalf("walk = %+v, %v", infos, err)
		}
		for _, info := range infos {
			if info.Name != tc.root+"/a/x" && info.Name != tc.root+"/a/b/y" || info.Size != 10 {
				t.Fatalf("walk entry %+v", info)
			}
		}
		r, _ := tc.fs.Open(tc.root + "/a/b/y")
		if off, err := r.Seek(-3, io.SeekEnd); off != 7 || err != nil {
			t.Fatalf("seek = %d, %v", off, err)
		}
		if rest, _ := io.ReadAll(r); string(rest) != "789" {
			t.Fatalf("read after seek = %q", rest)
		}
		r.Close()
	}
	ff := NewFault(NewMem(), nil)
	f, _ := ff.Create("/x") // op 1
	ff.Stat("/x")
	ff.Walk("/")
	f.Seek(0, io.SeekStart)
	if ff.Ops() != 4 {
		t.Fatalf("ops = %d: Stat, Walk and Seek are not each one crash point", ff.Ops())
	}
}

// TestOSFSRoundTrip exercises the production implementation against
// a real temp dir: append, sync, rename, readdir.
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := OS()
	if err := fs.MkdirAll(dir + "/wal"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenAppend(dir + "/wal/shard-000.wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(dir+"/wal/shard-000.wal", dir+"/wal/renamed.wal"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir + "/wal"); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "renamed.wal" {
		t.Fatalf("readdir = %v", names)
	}
	if got := string(readAll(t, fs, dir+"/wal/renamed.wal")); got != "hello" {
		t.Fatalf("contents = %q", got)
	}
}
