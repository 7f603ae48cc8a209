package dfs

import (
	"bytes"
	"testing"
)

func TestCorruptReplicaFallsOverOnRead(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	data := pattern(4096)
	if err := c.WriteFile("/f", "dn00", data); err != nil {
		t.Fatal(err)
	}
	// Corrupt the writer-local replica of every block; reads hinted at
	// dn00 must fall over to healthy replicas and return clean data.
	for _, id := range c.BlockIDsOn("dn00") {
		if !c.CorruptReplica("dn00", id) {
			t.Fatalf("could not corrupt %s", id)
		}
	}
	got, err := c.ReadFile("/f", "dn00")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned corrupt bytes")
	}
}

func TestScrubRepairsCorruption(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	data := pattern(4096)
	if err := c.WriteFile("/f", "dn00", data); err != nil {
		t.Fatal(err)
	}
	blocks := c.BlockIDsOn("dn00")
	for _, id := range blocks {
		c.CorruptReplica("dn00", id)
	}
	rep := c.Scrub()
	if rep.CorruptDropped != len(blocks) {
		t.Fatalf("dropped = %d, want %d", rep.CorruptDropped, len(blocks))
	}
	if rep.ReReplicated != len(blocks) {
		t.Fatalf("re-replicated = %d, want %d", rep.ReReplicated, len(blocks))
	}
	if rep.Unrecoverable != 0 {
		t.Fatalf("unrecoverable = %d", rep.Unrecoverable)
	}
	// Replication factor restored everywhere.
	if ur := c.underReplicated(); ur != 0 {
		t.Fatalf("under-replicated after scrub = %d", ur)
	}
	// A clean pass finds nothing.
	rep2 := c.Scrub()
	if rep2.CorruptDropped != 0 || rep2.ReReplicated != 0 {
		t.Fatalf("second pass = %+v", rep2)
	}
	got, err := c.ReadFile("/f", "")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data damaged by scrub: %v", err)
	}
}

func TestScrubUnrecoverable(t *testing.T) {
	// Replication 1: corrupting the only replica loses the block.
	c := NewCluster(Config{BlockSize: 1024, Replication: 1, Seed: 5})
	if _, err := c.AddDataNode("solo", "r", 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/f", "solo", pattern(1024)); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.BlockIDsOn("solo") {
		c.CorruptReplica("solo", id)
	}
	rep := c.Scrub()
	if rep.Unrecoverable != 1 {
		t.Fatalf("unrecoverable = %d, want 1", rep.Unrecoverable)
	}
	if _, err := c.ReadFile("/f", ""); err == nil {
		t.Fatal("lost block still readable")
	}
}

func TestScrubAfterNodeDeath(t *testing.T) {
	c := newTestCluster(t, 6, 2, 1024)
	if err := c.WriteFile("/f", "dn00", pattern(2048)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.KillNode("dn01"); err != nil {
		t.Fatal(err)
	}
	rep := c.Scrub()
	// KillNode already repaired; scrub confirms health.
	if rep.CorruptDropped != 0 || rep.Unrecoverable != 0 {
		t.Fatalf("scrub after repair = %+v", rep)
	}
}
