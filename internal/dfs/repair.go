package dfs

import "fmt"

// KillNode marks a datanode dead, as a heartbeat timeout would, and
// runs the re-replication pass for every block it held. It returns
// the number of block replicas restored.
func (c *Cluster) KillNode(id string) (int, error) {
	c.mu.Lock()
	dn, ok := c.nodes[id]
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("dfs: unknown datanode %q", id)
	}
	lost := dn.kill()
	lostSet := make(map[BlockID]bool, len(lost))
	for _, b := range lost {
		lostSet[b] = true
	}
	// Strip the dead node from replica lists.
	type job struct {
		meta *blockMeta
	}
	var jobs []job
	for _, f := range c.files {
		for _, b := range f.blocks {
			if !lostSet[b.id] {
				continue
			}
			keep := b.replicas[:0]
			for _, r := range b.replicas {
				if r != id {
					keep = append(keep, r)
				}
			}
			b.replicas = keep
			if len(b.replicas) < c.cfg.Replication {
				jobs = append(jobs, job{meta: b})
			}
		}
	}
	c.mu.Unlock()

	restored := 0
	for _, j := range jobs {
		if c.reReplicate(j.meta) {
			restored++
		}
	}
	return restored, nil
}

// ReviveNode brings a dead node back empty (its disk is considered
// reformatted, as HDFS treats rejoining nodes with stale block maps).
func (c *Cluster) ReviveNode(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	dn, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("dfs: unknown datanode %q", id)
	}
	dn.mu.Lock()
	dn.alive.Store(true)
	dn.blocks = make(map[BlockID]*replica)
	dn.usedByte.Store(0)
	dn.mu.Unlock()
	return nil
}

// reReplicate copies one under-replicated block from a surviving
// replica to a new target chosen by the placement policy.
func (c *Cluster) reReplicate(b *blockMeta) bool {
	// Read from any live holder; the stored checksum travels with the
	// bytes so the target node stores rather than re-hashes. The
	// source is pinned, not lent — putBlock copies, so the buffer
	// stays recyclable.
	var data []byte
	var sum uint32
	c.mu.RLock()
	holders := append([]string(nil), b.replicas...)
	c.mu.RUnlock()
	for _, id := range holders {
		dn, ok := c.Node(id)
		if !ok {
			continue
		}
		if d, s, rep, err := dn.getBlockPinned(b.id); err == nil {
			data, sum = d, s
			defer dn.unpinBlock(rep)
			break
		}
	}
	if data == nil {
		return false // block lost entirely; nothing to copy
	}

	c.mu.Lock()
	taken := make(map[string]bool, len(b.replicas))
	for _, r := range b.replicas {
		taken[r] = true
	}
	var target *DataNode
	var cands []*DataNode
	for _, id := range c.order {
		dn := c.nodes[id]
		if taken[id] || !dn.hasSpace(b.size) {
			continue
		}
		cands = append(cands, dn)
	}
	if len(cands) > 0 {
		target = cands[c.rng.Intn(len(cands))]
	}
	c.mu.Unlock()

	if target == nil {
		return false
	}
	if err := target.putBlock(b.id, data, sum); err != nil {
		return false
	}
	c.mu.Lock()
	if !target.holds(b.id) { // killed since the put: see flushBlock
		c.mu.Unlock()
		return false
	}
	b.replicas = append(b.replicas, target.ID)
	c.mu.Unlock()
	c.reReplicated.Add(1)
	return true
}

// underReplicated returns the number of blocks below the replication
// factor (counting only live replicas).
func (c *Cluster) underReplicated() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, f := range c.files {
		for _, b := range f.blocks {
			live := 0
			for _, id := range b.replicas {
				if dn, ok := c.nodes[id]; ok && dn.isAlive() {
					live++
				}
			}
			if live < c.cfg.Replication {
				n++
			}
		}
	}
	return n
}
