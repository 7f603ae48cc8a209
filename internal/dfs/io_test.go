package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/units"
)

// A flush that fails at Close must be reported by that Close AND by
// every later Close — the old writer marked itself closed first and
// swallowed the error on the second call.
func TestCloseReportsFlushErrorRepeatedly(t *testing.T) {
	c := NewCluster(Config{BlockSize: 1024, Replication: 1, Seed: 1})
	if _, err := c.AddDataNode("tiny", "r", 512); err != nil {
		t.Fatal(err)
	}
	w, err := c.Create("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	// 800 bytes: buffered (under one block), flushed only at Close,
	// where placement fails — the node holds 512.
	if _, err := w.Write(pattern(800)); err != nil {
		t.Fatal(err)
	}
	first := w.Close()
	if !errors.Is(first, ErrNoSpace) {
		t.Fatalf("first Close = %v, want ErrNoSpace", first)
	}
	if again := w.Close(); !errors.Is(again, ErrNoSpace) {
		t.Fatalf("second Close = %v, want the recorded flush error", again)
	}
	// The file never became readable.
	if _, err := c.Open("/f", ""); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("Open after failed Close = %v, want ErrIncomplete", err)
	}
}

// A clean double Close stays nil.
func TestDoubleCloseClean(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1024)
	w, err := c.Create("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// Checksum lifecycle: replicas are verified lazily on first read and
// the result sticks; corruption injection invalidates, so the next
// read re-verifies and detects it.
func TestChecksumVerifiedOnceThenInvalidated(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	if err := c.WriteFile("/f", "dn00", pattern(1024)); err != nil {
		t.Fatal(err)
	}
	dn, _ := c.Node("dn00")
	ids := c.BlockIDsOn("dn00")
	if len(ids) != 1 {
		t.Fatalf("blocks on dn00 = %d, want 1", len(ids))
	}
	id := ids[0]
	rep := func() *replica {
		dn.mu.Lock()
		defer dn.mu.Unlock()
		return dn.blocks[id]
	}()
	if rep.verified {
		t.Fatal("replica verified before any read")
	}
	if _, err := c.ReadFile("/f", "dn00"); err != nil {
		t.Fatal(err)
	}
	if !rep.verified {
		t.Fatal("replica not marked verified after first read")
	}
	if !c.CorruptReplica("dn00", id) {
		t.Fatal("could not corrupt replica")
	}
	if rep.verified {
		t.Fatal("corruption did not invalidate the replica")
	}
	// The corrupt replica reads as an error; the reader falls over.
	if _, _, err := dn.getBlock(id); err == nil {
		t.Fatal("corrupt replica read back without error")
	}
}

// Degraded read: with one replica corrupted, reads hinted at the bad
// node fall over to a healthy copy, and a later scrub drops the bad
// replica and restores replication.
func TestDegradedReadThenScrubRepairs(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	data := pattern(3072)
	if err := c.WriteFile("/f", "dn00", data); err != nil {
		t.Fatal(err)
	}
	// Read once so every dn00 replica is verified — the corruption
	// must still be caught via invalidation, not first-read luck.
	if got, err := c.ReadFile("/f", "dn00"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean read failed: %v", err)
	}
	ids := c.BlockIDsOn("dn00")
	if len(ids) == 0 {
		t.Fatal("no blocks on dn00")
	}
	bad := ids[0]
	if !c.CorruptReplica("dn00", bad) {
		t.Fatal("could not corrupt replica")
	}
	got, err := c.ReadFile("/f", "dn00")
	if err != nil {
		t.Fatalf("degraded read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned corrupt bytes")
	}
	rep := c.Scrub()
	if rep.CorruptDropped != 1 {
		t.Fatalf("scrub dropped %d replicas, want 1", rep.CorruptDropped)
	}
	if rep.ReReplicated != 1 {
		t.Fatalf("scrub re-replicated %d blocks, want 1", rep.ReReplicated)
	}
	if ur := c.UnderReplicated(); ur != 0 {
		t.Fatalf("under-replicated after scrub = %d", ur)
	}
}

// ReadAt via the block index: backward and random section reads across
// many blocks return exact bytes (the old reader kept only a single
// cursor block; the index + cache must not change semantics).
func TestReadAtBackwardSeeks(t *testing.T) {
	c := newTestCluster(t, 6, 2, 128)
	data := pattern(4096) // 32 blocks
	if err := c.WriteFile("/f", "", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{4000, 0, 2048, 100, 3900, 500, 0}
	buf := make([]byte, 96)
	for _, off := range offsets {
		n, err := r.ReadAt(buf, off)
		if err != nil && err != io.EOF {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
			t.Fatalf("ReadAt(%d) returned wrong bytes", off)
		}
	}
}

// WriteTo streams the remaining bytes and advances the position.
func TestWriteTo(t *testing.T) {
	c := newTestCluster(t, 4, 2, 256)
	data := pattern(1000)
	if err := c.WriteFile("/f", "", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(300, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	n, err := r.WriteTo(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != 700 || !bytes.Equal(sink.Bytes(), data[300:]) {
		t.Fatalf("WriteTo copied %d bytes, mismatch=%v", n, !bytes.Equal(sink.Bytes(), data[300:]))
	}
	if _, err := sink.ReadByte(); err != nil {
		t.Fatal(err)
	}
}

// 16 concurrent readers × 4 concurrent writers on one cluster — run
// under -race in CI. Readers hammer pre-written files while writers
// commit new ones through the pooled-buffer, fan-out write path.
func TestConcurrentReadWriteStress(t *testing.T) {
	c := newTestCluster(t, 8, 2, 2048)
	const (
		baseFiles     = 4
		readers       = 16
		writers       = 4
		filesPerWrite = 6
		readRounds    = 8
	)
	base := make([][]byte, baseFiles)
	for i := range base {
		base[i] = pattern(16*1024 + i)
		if err := c.WriteFile(fmt.Sprintf("/stress/base/%d", i), fmt.Sprintf("dn%02d", i%8), base[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, readers+writers+1)
	// Admin churn concurrent with the data path: scrub passes plus a
	// kill/re-replicate/revive cycle. Replication is 3 and only one
	// node is ever down, so every block keeps a live replica; readers
	// holding stale location snapshots must refresh and carry on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			c.Scrub()
			victim := fmt.Sprintf("dn%02d", i%8)
			if _, err := c.KillNode(victim); err != nil {
				errc <- fmt.Errorf("admin kill: %w", err)
				return
			}
			if err := c.ReviveNode(victim); err != nil {
				errc <- fmt.Errorf("admin revive: %w", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < filesPerWrite; j++ {
				name := fmt.Sprintf("/stress/w/%d-%d", w, j)
				data := pattern(8*1024 + w*100 + j)
				if err := c.WriteFile(name, fmt.Sprintf("dn%02d", (w+j)%8), data); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
				got, err := c.ReadFile(name, "")
				if err != nil || !bytes.Equal(got, data) {
					errc <- fmt.Errorf("writer %d read-back %s: %v", w, name, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			hint := fmt.Sprintf("dn%02d", r%8)
			for round := 0; round < readRounds; round++ {
				i := (r + round) % baseFiles
				got, err := c.ReadFile(fmt.Sprintf("/stress/base/%d", i), hint)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if !bytes.Equal(got, base[i]) {
					errc <- fmt.Errorf("reader %d: base file %d mismatch", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.Files != baseFiles+writers*filesPerWrite {
		t.Fatalf("files = %d, want %d", rep.Files, baseFiles+writers*filesPerWrite)
	}
	if rep.BytesRead == 0 || rep.BytesWritten == 0 {
		t.Fatalf("metrics lost under concurrency: %+v", rep)
	}
}

// TestNodeDiesBetweenPutAndList: nodes a block landed on are killed
// and revived empty after its put but before the block is listed — the
// window TestConcurrentReadWriteStress hit, as "missing block" on a
// read-back, when all three of its kill/revive cycles fell inside one
// block's write, and as "has no replicas" when two did and the third
// came after the listing. The write must leave the block readable and
// fully replicated, listing only nodes that hold it.
func TestNodeDiesBetweenPutAndList(t *testing.T) {
	for _, dying := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d of 3", dying), func(t *testing.T) {
			c := newTestCluster(t, 3, 1, 1024)
			nodes := c.DataNodes()
			var once sync.Once
			c.afterBlockPut = func(BlockID) {
				once.Do(func() {
					for _, id := range nodes[:dying] {
						if _, err := c.KillNode(id); err != nil {
							t.Error(err)
						}
						if err := c.ReviveNode(id); err != nil {
							t.Error(err)
						}
					}
				})
			}

			data := pattern(1000)
			if err := c.WriteFile("/window", nodes[0], data); err != nil {
				t.Fatal(err)
			}
			if got, err := c.ReadFile("/window", ""); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read-back: %v", err)
			}
			locs, err := c.BlockLocations("/window")
			if err != nil {
				t.Fatal(err)
			}
			for i, replicas := range locs {
				for _, node := range replicas {
					if !slices.ContainsFunc(c.BlockIDsOn(node), func(b BlockID) bool { return b.Index == i }) {
						t.Errorf("block %d lists %s, which does not hold it", i, node)
					}
				}
			}
			if n := c.UnderReplicated(); n != 0 {
				t.Errorf("%d blocks under-replicated", n)
			}
		})
	}
}

// A reader that fetched blocks before its file was deleted (and the
// cluster immediately rewrites new data, churning the buffer pool)
// must keep seeing the original bytes: buffers whose slices escaped
// through getBlock are never recycled into the pool.
func TestReaderSurvivesDeleteAndPoolChurn(t *testing.T) {
	c := newTestCluster(t, 4, 2, 512)
	data := pattern(2048)
	if err := c.WriteFile("/victim", "dn00", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("/victim", "dn00")
	if err != nil {
		t.Fatal(err)
	}
	// Populate the reader's block cache.
	head := make([]byte, 1024)
	if _, err := r.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/victim"); err != nil {
		t.Fatal(err)
	}
	// Churn the pool: new writes would scribble over any wrongly
	// recycled buffer.
	for i := 0; i < 8; i++ {
		junk := bytes.Repeat([]byte{0xEE}, 2048)
		if err := c.WriteFile(fmt.Sprintf("/churn/%d", i), "", junk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, data[:1024]) {
		t.Fatal("cached blocks were recycled out from under an open reader")
	}
}

// Buffers never handed to a reader ARE recycled on delete: the
// write-delete churn path reuses pooled block buffers instead of
// allocating BlockSize per block per replica. Put and Get run on the
// same goroutine, so sync.Pool's per-P slot makes the round-trip
// deterministic here.
func TestUnreadBuffersRecycleOnDelete(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items randomly under the race detector")
	}
	c := newTestCluster(t, 4, 2, 512)
	if err := c.WriteFile("/a", "", pattern(512)); err != nil {
		t.Fatal(err)
	}
	var bufs []*byte
	for _, id := range []string{"dn00", "dn01", "dn02", "dn03"} {
		dn, _ := c.Node(id)
		dn.mu.Lock()
		for _, rep := range dn.blocks {
			bufs = append(bufs, &rep.data[0])
		}
		dn.mu.Unlock()
	}
	if len(bufs) == 0 {
		t.Fatal("no replicas stored")
	}
	if err := c.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	// The pool also holds the writer's staging buffer; drain a few
	// entries and accept any retired replica buffer among them.
	for i := 0; i < 8; i++ {
		got := c.pool.get(0)
		base := &got[:1][0]
		for _, b := range bufs {
			if b == base {
				return // one of the retired replica buffers came back
			}
		}
	}
	t.Fatal("pool did not return any buffer retired by Delete")
}

// A block much shorter than BlockSize must not hold a whole pooled
// block per replica: spill runs and part files are tens of KiB. 200
// one-KiB files at replication 3 cost 150 MiB at a block each; the
// bar is a tenth of that.
func TestShortBlocksAreRightSized(t *testing.T) {
	const files, blockSize = 200, 256 * 1024
	c := newTestCluster(t, 4, 2, blockSize)
	data := pattern(1024)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < files; i++ {
		if err := c.WriteFile(fmt.Sprintf("/short/%03d", i), "", data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d one-KiB files at replication 3 grew the heap by %d B", files, grown)
	if whole := int64(files * 3 * blockSize); grown >= whole/10 {
		t.Fatalf("%d one-KiB files grew the heap by %d B, want under a tenth of %d (a block per replica)", files, grown, whole)
	}
	got, err := c.ReadFile("/short/199", "")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("short block read back wrong: %v", err)
	}
}

// A reader whose replica snapshot went entirely stale (every original
// holder died and the blocks were re-replicated elsewhere) must
// refresh locations from the namenode and keep reading.
func TestReaderRefreshesStaleReplicas(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	data := pattern(2048)
	if err := c.WriteFile("/f", "dn00", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	// Kill every node that held a replica at Open time; KillNode
	// re-replicates onto the survivors.
	locs, err := c.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	holders := map[string]bool{}
	for _, reps := range locs {
		for _, id := range reps {
			holders[id] = true
		}
	}
	if len(holders) >= 6 {
		t.Fatalf("replicas cover all %d nodes; cannot go fully stale", len(holders))
	}
	for id := range holders {
		if _, err := c.KillNode(id); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(data))
	if _, err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("read after full replica turnover: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("refreshed read returned wrong bytes")
	}
}

// The cluster-wide replica-stream semaphore must bound, not deadlock,
// a write storm larger than its capacity.
func TestReplicaStreamBound(t *testing.T) {
	c := NewCluster(Config{BlockSize: 1024, Replication: 3, Seed: 9, MaxReplicaStreams: 2})
	for i := 0; i < 6; i++ {
		if _, err := c.AddDataNode(fmt.Sprintf("dn%02d", i), fmt.Sprintf("r%d", i%2), units.MiB); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := c.WriteFile(fmt.Sprintf("/sem/%d", w), "", pattern(4096)); err != nil {
				errc <- err
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for w := 0; w < 8; w++ {
		if _, err := c.ReadFile(fmt.Sprintf("/sem/%d", w), ""); err != nil {
			t.Fatal(err)
		}
	}
}
