package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// buildCluster creates n nodes round-robin across racks with small
// blocks for fast tests.
func buildCluster(n, racks int, blockSize units.Bytes) *Cluster {
	c := NewCluster(Config{BlockSize: blockSize, Replication: 3, Seed: 7})
	for i := 0; i < n; i++ {
		rack := fmt.Sprintf("rack%d", i%racks)
		if _, err := c.AddDataNode(fmt.Sprintf("dn%02d", i), rack, units.GiB); err != nil {
			panic(err)
		}
	}
	return c
}

func newTestCluster(t *testing.T, n, racks int, blockSize units.Bytes) *Cluster {
	t.Helper()
	return buildCluster(n, racks, blockSize)
}

func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	data := pattern(10_000) // ~10 blocks
	if err := c.WriteFile("/exp/a", "dn00", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/exp/a", "dn01")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	info, err := c.Stat("/exp/a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != units.Bytes(len(data)) || info.Blocks != 10 || !info.Complete {
		t.Fatalf("stat = %+v", info)
	}
}

func TestEmptyFile(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1024)
	if err := c.WriteFile("/empty", "", nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/empty", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("read %d bytes from empty file", len(got))
	}
}

func TestReplicationFactor(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	if err := c.WriteFile("/f", "dn00", pattern(3000)); err != nil {
		t.Fatal(err)
	}
	locs, err := c.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	for i, reps := range locs {
		if len(reps) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", i, len(reps))
		}
	}
}

func TestPlacementPolicy(t *testing.T) {
	c := newTestCluster(t, 9, 3, 1024)
	if err := c.WriteFile("/f", "dn00", pattern(1024)); err != nil {
		t.Fatal(err)
	}
	locs, _ := c.BlockLocations("/f")
	reps := locs[0]
	if reps[0] != "dn00" {
		t.Fatalf("first replica on %s, want writer-local dn00", reps[0])
	}
	rack := func(id string) string {
		dn, _ := c.Node(id)
		return dn.Rack
	}
	if rack(reps[1]) == rack(reps[0]) {
		t.Fatalf("second replica on same rack as first (%s)", rack(reps[1]))
	}
	if rack(reps[2]) != rack(reps[1]) {
		t.Fatalf("third replica rack %s, want same as second %s", rack(reps[2]), rack(reps[1]))
	}
	if reps[1] == reps[2] {
		t.Fatal("second and third replica on same node")
	}
}

// Property: for any write size, no block ever has two replicas on one
// node, and every complete file reads back byte-identical.
func TestPlacementInvariantQuick(t *testing.T) {
	f := func(size uint16, hint8 uint8) bool {
		c := buildCluster(8, 3, 512)
		hint := fmt.Sprintf("dn%02d", int(hint8)%8)
		data := pattern(int(size))
		if err := c.WriteFile("/q", hint, data); err != nil {
			return false
		}
		locs, err := c.BlockLocations("/q")
		if err != nil {
			return false
		}
		for _, reps := range locs {
			seen := map[string]bool{}
			for _, r := range reps {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		got, err := c.ReadFile("/q", "")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalVsRemoteReads(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	if err := c.WriteFile("/f", "dn00", pattern(5120)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("/f", "dn00"); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.LocalReads == 0 {
		t.Fatalf("no local reads despite local replicas: %+v", rep)
	}
	if rep.LocalReads != 5 {
		t.Fatalf("local reads = %d, want 5 (all blocks local)", rep.LocalReads)
	}
}

func TestReadAtAcrossBlocks(t *testing.T) {
	c := newTestCluster(t, 4, 2, 100)
	data := pattern(1000)
	if err := c.WriteFile("/f", "", data); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 250)
	if _, err := r.ReadAt(buf, 75); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[75:325]) {
		t.Fatal("ReadAt across block boundary mismatch")
	}
	// Past-EOF read.
	if _, err := r.ReadAt(buf, 2000); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	// Short read at tail.
	n, err := r.ReadAt(buf, 900)
	if n != 100 || err != io.EOF {
		t.Fatalf("tail read n=%d err=%v", n, err)
	}
}

func TestSeekRead(t *testing.T) {
	c := newTestCluster(t, 4, 2, 128)
	data := pattern(500)
	if err := c.WriteFile("/f", "", data); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Open("/f", "")
	if _, err := r.Seek(200, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, data[200:]) {
		t.Fatal("seek+read mismatch")
	}
}

func TestOpenErrors(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1024)
	if _, err := c.Open("/missing", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	w, err := c.Create("/partial", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pattern(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("/partial", ""); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Create("/partial", ""); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("/partial", ""); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	c := newTestCluster(t, 4, 2, 1024)
	if err := c.WriteFile("/f", "", pattern(4096)); err != nil {
		t.Fatal(err)
	}
	before := c.Report().Used
	if before == 0 {
		t.Fatal("no usage after write")
	}
	if err := c.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if used := c.Report().Used; used != 0 {
		t.Fatalf("used after delete = %v", used)
	}
	if err := c.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestList(t *testing.T) {
	c := newTestCluster(t, 3, 1, 1024)
	for _, n := range []string{"/a/1", "/a/2", "/b/1"} {
		if err := c.WriteFile(n, "", pattern(10)); err != nil {
			t.Fatal(err)
		}
	}
	got := c.List("/a/")
	if len(got) != 2 || got[0].Name != "/a/1" || got[1].Name != "/a/2" {
		t.Fatalf("list = %+v", got)
	}
}

func TestNodeFailureReReplication(t *testing.T) {
	c := newTestCluster(t, 8, 2, 1024)
	data := pattern(8 * 1024)
	if err := c.WriteFile("/f", "dn00", data); err != nil {
		t.Fatal(err)
	}
	restored, err := c.KillNode("dn00")
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("expected re-replication of blocks held by dn00")
	}
	if ur := c.underReplicated(); ur != 0 {
		t.Fatalf("under-replicated blocks after repair: %d", ur)
	}
	got, err := c.ReadFile("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted by node failure")
	}
	if c.Report().ReReplicated == 0 {
		t.Fatal("report should count re-replications")
	}
}

func TestDoubleFailureStillReadable(t *testing.T) {
	c := newTestCluster(t, 9, 3, 1024)
	data := pattern(4 * 1024)
	if err := c.WriteFile("/f", "dn00", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KillNode("dn00"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KillNode("dn01"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost after two failures with replication 3")
	}
}

func TestReviveNode(t *testing.T) {
	c := newTestCluster(t, 4, 2, 1024)
	if err := c.WriteFile("/f", "dn00", pattern(2048)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KillNode("dn00"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveNode("dn00"); err != nil {
		t.Fatal(err)
	}
	dn, _ := c.Node("dn00")
	dn.mu.Lock()
	blocks := len(dn.blocks)
	dn.mu.Unlock()
	if !dn.isAlive() || dn.Used() != 0 || blocks != 0 {
		t.Fatalf("revived node state: alive=%v used=%v blocks=%d", dn.isAlive(), dn.Used(), blocks)
	}
	if got := len(c.DataNodes()); got != 4 {
		t.Fatalf("live nodes = %d", got)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c := NewCluster(Config{BlockSize: 1024, Replication: 1, Seed: 1})
	if _, err := c.AddDataNode("tiny", "r", 2048); err != nil {
		t.Fatal(err)
	}
	w, err := c.Create("/big", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Write(pattern(10 * 1024))
	if err == nil {
		err = w.Close()
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestUnderReplicatedOnSmallCluster(t *testing.T) {
	// 2 nodes, replication 3: blocks are written under-replicated.
	c := NewCluster(Config{BlockSize: 1024, Replication: 3, Seed: 1})
	for i := 0; i < 2; i++ {
		if _, err := c.AddDataNode(fmt.Sprintf("dn%d", i), "r", units.MiB); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteFile("/f", "", pattern(1024)); err != nil {
		t.Fatal(err)
	}
	if ur := c.underReplicated(); ur != 1 {
		t.Fatalf("under-replicated = %d, want 1", ur)
	}
	// Adding a third node and re-running repair via KillNode of nothing
	// is not available; verify read still works.
	if _, err := c.ReadFile("/f", ""); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	c := newTestCluster(t, 8, 2, 4096)
	const files = 16
	errc := make(chan error, files*2)
	for i := 0; i < files; i++ {
		go func(i int) {
			name := fmt.Sprintf("/par/%02d", i)
			data := pattern(10_000 + i)
			if err := c.WriteFile(name, fmt.Sprintf("dn%02d", i%8), data); err != nil {
				errc <- err
				return
			}
			got, err := c.ReadFile(name, "")
			if err != nil {
				errc <- err
				return
			}
			if !bytes.Equal(got, data) {
				errc <- fmt.Errorf("file %s mismatch", name)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < files; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Report().Files; got != files {
		t.Fatalf("files = %d, want %d", got, files)
	}
}
