package metadata

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/adal"
)

// ReplicaState is a replica's state in the catalogue; its String is the
// word the journal writes for it. The zero state is no replica, the word
// a drop is journaled under.
type ReplicaState uint8

// Replica states.
const (
	ReplicaPending ReplicaState = iota + 1 // a transfer is scheduled to give the site a copy
	ReplicaCopying                         // a transfer toward the site is in flight
	ReplicaValid                           // the site's copy matched the path's digest
	ReplicaStale                           // a read failed or a verify mismatched: the bytes are suspect
	ReplicaLost                            // the site reported the object missing
)

var replicaWords = [...]string{"dropped", "pending", "copying", "valid", "stale", "lost"}

// String implements fmt.Stringer.
func (st ReplicaState) String() string {
	if int(st) < len(replicaWords) {
		return replicaWords[st]
	}
	return fmt.Sprintf("state(%d)", int(st))
}

// parseReplicaState is String's inverse; an unknown word is no replica.
func parseReplicaState(word string) ReplicaState {
	return ReplicaState(max(slices.Index(replicaWords[:], word), 0))
}

// durable reports whether the journal holds the state. Pending and
// Copying describe a transfer, not a replica: they live in the table
// only, and noting one over a journaled state clears it from the
// journal, so a crash mid-copy recovers no replica whose bytes the copy
// may have cut.
func (st ReplicaState) durable() bool { return st >= ReplicaValid }

// Replica is one site's copy of a path, as the catalogue holds it.
type Replica struct {
	Site  string
	State ReplicaState
}

// replicaRow is one path's row of the replica catalogue: the digest its
// copies are checked against, and the sites holding one, sorted. sites
// is replaced, never written in place, so Replicas can hand it out.
type replicaRow struct {
	digest adal.Digest
	sites  []Replica
}

// noteReplica applies a replica note to the path's row — under ps.mu,
// or in single-threaded recovery — and reports whether the journal must
// hear of it: whether what a replay rebuilds moved. A note that moves
// nothing sets rec.noop, and publishes nothing: a repeated state; a
// Copying, Stale or Lost for a site the row lacks; with rec.needRow (a
// live SetReplica), any note on a path with no row. Without needRow
// (AddReplica, replay, Import) a journaled state takes a row for its
// path, and a replayed Pending or Copying clears the site: no transfer
// survives a restart.
//
// A note without a site addresses the row: "dropped" removes it, with
// every site and the digest (rec.dropped gets the sites), and a bare
// digest — what a dump holds for a row — takes the row.
//
// A Valid note's digest becomes the row's if the row has none; else it
// is left off the record, so a path's digest is journaled once, with its
// first Valid note. It cannot change while the row lives: the federation
// refuses to create a path it knows. A live Valid note (SetReplicaValid)
// whose digest is not the row's is refused: its copy checked the bytes
// of a path since removed and created again.
func (ps *pathShard) noteReplica(rec *walRecord) (journal bool) {
	row := ps.replicas[rec.Path]
	st := parseReplicaState(rec.State)
	if !rec.needRow && !st.durable() {
		st = 0
	}
	if rec.Site == "" && rec.State != "" { // the path's removal
		if rec.noop = row == nil; !rec.noop {
			rec.dropped = row.sites
			delete(ps.replicas, rec.Path)
		}
		return !rec.noop
	}
	if row == nil {
		if rec.needRow || (rec.Site != "" && !st.durable()) {
			rec.noop = true
			return false
		}
		row = &replicaRow{sites: []Replica{}}
		ps.replicas[rec.Path] = row
	}
	if rec.needRow && st == ReplicaValid && (rec.Digest == nil || row.digest.Sum != "" && rec.Digest.Sum != row.digest.Sum) {
		rec.noop = true // checked against other bytes than the row's
		return false
	}
	digest := rec.Digest != nil && rec.Digest.Sum != "" && row.digest.Sum == "" && (rec.Site == "" || st == ReplicaValid)
	if digest {
		row.digest = *rec.Digest
	} else {
		rec.Digest = nil
	}
	i, had := slices.BinarySearchFunc(row.sites, rec.Site, func(r Replica, site string) int {
		return strings.Compare(r.Site, site)
	})
	var old ReplicaState
	if had {
		old = row.sites[i].State
	}
	if rec.Site == "" || st == old || (!had && rec.needRow && st != ReplicaPending && st != ReplicaValid) {
		rec.noop = !digest
		return digest
	}
	sites := append(make([]Replica, 0, len(row.sites)+1), row.sites[:i]...)
	if st != 0 {
		sites = append(sites, Replica{Site: rec.Site, State: st})
	}
	if had {
		i++
	}
	if row.sites = append(sites, row.sites[i:]...); len(row.sites) == 0 && row.digest.Sum == "" {
		delete(ps.replicas, rec.Path) // a row from a log written before rows had digests
	}
	return digest || st.durable() || old.durable()
}

// replicaNote commits a replica note — waiting for the log unless it
// notes a Valid copy, which is staged — and publishes an EventReplica
// for what it moved: the site, or every site of a dropped row; a note
// the log refused publishes nothing. A Valid note may be staged because
// losing it makes recovery believe less than is true; the next copy job
// revalidates the bytes without moving them.
// It returns the record as apply left it.
func (s *Store) replicaNote(rec walRecord) walRecord {
	rec.Op = opReplica
	recs := [1]walRecord{rec}
	errs := s.commit(recs[:], false, rec.State != ReplicaValid.String())
	if errs != nil {
		s.walErrs.Add(1)
	}
	if errs != nil || recs[0].noop {
		return recs[0]
	}
	if rec.Site != "" {
		s.notePublish(EventReplica, rec.Path, rec.Site, rec.State)
	}
	for _, r := range recs[0].dropped {
		s.notePublish(EventReplica, rec.Path, r.Site, rec.State)
	}
	return recs[0]
}

// AddReplica records site's copy of path as Valid, with d, the digest
// of the hash pass that wrote or checked it. It is how a path enters the
// catalogue — the federation's home copy, `lsdfctl replica add` — so it
// takes a row for a path without one; a row keeps its first digest. The
// note is staged: it is durable with the CreateBatch that registers
// path, or once anything waits for the log past it (Sync, Close, any
// commit).
func (s *Store) AddReplica(path, site string, d adal.Digest) {
	s.replicaNote(walRecord{Path: path, Site: site, State: ReplicaValid.String(), Digest: &d})
}

// SetReplica moves site's replica of path to st, and reports whether it
// did. Only a path with a row takes it, and Copying, Stale and Lost only
// for a site the row holds: a transfer or a read that outlives the
// path's removal cannot bring the path back. A Valid carries the digest
// its copy checked, so it is SetReplicaValid's; SetReplica refuses one.
// The note is durable when SetReplica returns. Journaling failures land
// on WALErrors.
func (s *Store) SetReplica(path, site string, st ReplicaState) bool {
	return !s.replicaNote(walRecord{Path: path, Site: site, State: st.String(), needRow: true}).noop
}

// SetReplicaValid moves site's replica of path to Valid, d being the
// digest the copy or scrub that proved it checked, and reports whether it
// did. A path without a row refuses it, and so does a row whose digest is
// not d — the path was removed and created again while the copy ran —
// so a copy that outlives its path's bytes is never served. The note is
// staged, as AddReplica's.
func (s *Store) SetReplicaValid(path, site string, d adal.Digest) bool {
	return !s.replicaNote(walRecord{Path: path, Site: site, State: ReplicaValid.String(), Digest: &d, needRow: true}).noop
}

// DropReplica removes site's replica of path. The row stays, with its
// digest, until DropReplicas.
func (s *Store) DropReplica(path, site string) { s.SetReplica(path, site, 0) }

// DropReplicas removes path's row — every site's replica and the
// digest — and returns the sites it held, nil when there was no row.
func (s *Store) DropReplicas(path string) []Replica {
	return s.replicaNote(walRecord{Path: path, State: ReplicaState(0).String()}).dropped
}

// Replicas returns path's replicas, sorted by site; nil when path has no
// row. The slice is the table's own — it is replaced on every change,
// never written — so it costs no copy; callers must not modify it.
func (s *Store) Replicas(path string) []Replica {
	ps := s.pathShardFor(path)
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if row := ps.replicas[path]; row != nil {
		return row.sites
	}
	return nil
}

// Replica returns the state of site's replica of path.
func (s *Store) Replica(path, site string) (ReplicaState, bool) {
	for _, r := range s.Replicas(path) {
		if r.Site == site {
			return r.State, true
		}
	}
	return 0, false
}

// ValidSites names the sites holding a Valid replica of path, sorted.
func (s *Store) ValidSites(path string) []string {
	var out []string
	for _, r := range s.Replicas(path) {
		if r.State == ReplicaValid {
			out = append(out, r.Site)
		}
	}
	return out
}

// Digest returns the digest path's copies are checked against: size,
// SHA-256 and checkpoint chain, as journaled with its first Valid note.
func (s *Store) Digest(path string) (adal.Digest, bool) {
	ps := s.pathShardFor(path)
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	if row := ps.replicas[path]; row != nil && row.digest.Sum != "" {
		return row.digest, true
	}
	return adal.Digest{}, false
}

// ReplicaPaths returns every path with a row, sorted.
func (s *Store) ReplicaPaths() []string {
	var out []string
	for _, ps := range s.pathShards {
		ps.mu.RLock()
		for p := range ps.replicas {
			out = append(out, p)
		}
		ps.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
