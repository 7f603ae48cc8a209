// Package replication is the multi-site layer of the facility: an
// asynchronous transfer engine drives under-replicated objects toward a
// MinReplicas target over bandwidth-aware WAN streams, and a
// FederatedBackend serves reads from the nearest valid replica with
// transparent failover — the "Any Data, Any Time, Anywhere" discipline
// applied to the LSDF's remote communities. Every byte moves through
// ordinary adal.Backend streams, so a site may be a MemFS, a LocalFS, an
// object-store bucket or a tiered backend whose migrated objects recall
// transparently mid-copy.
//
// The replica catalogue is the metadata store's replica table, keyed by
// federated path (mount prefix + backend-relative path): one row per
// object with the digest every copy is checked against and each site's
// metadata.ReplicaState. The store journals it, publishes every
// transition as metadata.EventReplica, and refuses notes for a path it
// has no row for, so a transfer or a read that outlives an object's
// removal cannot bring the object back. This package keeps no table.
//
//	Pending -> Copying -> Valid
//	   ^                   |
//	   |        read error / checksum mismatch
//	   +------ Stale / Lost
//
// A failed site read marks the replica Stale (Lost on not-found) and
// enqueues re-replication; a revived site's stale replicas re-verify
// against the digest and flip back to Valid without a transfer. The
// journal holds replicas, not transfers: Pending and Copying live in
// memory; Stale, Lost and dropped block until durable; Valid is staged,
// durable with the CreateBatch that registers the object (home copy) or
// the next commit, Engine.Wait or Close (engine copy). A crash loses at
// most a copy's Valid note, and the next job revalidates those bytes
// without moving them.
package replication
