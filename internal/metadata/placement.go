package metadata

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/adal"
)

// TierState is where a tiered object's bytes live; its String is the
// word the journal writes for it.
type TierState uint8

// Tier states.
const (
	TierResident    TierState = iota // hot bytes only
	TierPremigrated                  // hot bytes and a cold copy
	TierMigrated                     // the cold copy only
)

var tierWords = [...]string{"resident", "premigrated", "migrated"}

// String implements fmt.Stringer.
func (st TierState) String() string {
	if int(st) < len(tierWords) {
		return tierWords[st]
	}
	return fmt.Sprintf("state(%d)", int(st))
}

// MarshalText writes the state as its word.
func (st TierState) MarshalText() ([]byte, error) { return []byte(st.String()), nil }

// UnmarshalText is MarshalText's inverse.
func (st *TierState) UnmarshalText(b []byte) error {
	i := slices.Index(tierWords[:], string(b))
	if i < 0 {
		return fmt.Errorf("metadata: unknown tier state %q", b)
	}
	*st = TierState(i)
	return nil
}

// Placement is a tiered object's row: where its bytes live, the digest
// every move between the tiers checks them against, their modification
// time and whether the object is pinned to the hot tier. The tier
// (tiering.TierBackend) writes it on every transition and opens from it.
type Placement struct {
	State   TierState   `json:"state"`
	Digest  adal.Digest `json:"digest"`
	ModTime time.Time   `json:"mod_time"`
	Pinned  bool        `json:"pinned,omitempty"`
}

// place applies a placement record to its path's row — under ps.mu, or
// in single-threaded recovery — and reports whether the table moved; a
// record without a row drops the path's. The digest is journaled with
// the row's creation: records that move only its state or pin leave it
// off and replay onto the row's. rec.noop is set when the state did not
// move: nothing for Place to publish.
func (ps *pathShard) place(rec *walRecord) bool {
	old, had := ps.placements[rec.Path]
	if rec.Placement == nil {
		delete(ps.placements, rec.Path)
		return had
	}
	p := *rec.Placement
	if p.Digest.Sum == "" {
		p.Digest = old.Digest
	} else if had && p.Digest.Sum == old.Digest.Sum {
		short := p
		short.Digest = adal.Digest{}
		rec.Placement = &short
	}
	ps.placements[rec.Path] = p
	rec.noop = had && old.State == p.State
	return true
}

// Place records p as path's placement row — nil drops the row — and
// publishes an EventPlacement when the row is new or its state moved.
// The record is staged: it is durable with the next commit that waits
// for the log (the CreateBatch registering path, or Sync), so a tier
// write pays no fsync of its own.
func (s *Store) Place(path string, p *Placement) error {
	recs := [1]walRecord{{Op: opPlacement, Path: path, Placement: p}}
	if errs := s.commit(recs[:], false, false); errs != nil {
		return errs[0]
	}
	if p != nil && !recs[0].noop {
		s.notePublish(EventPlacement, path, "", p.State.String())
	}
	return nil
}

// Placements returns the placement rows of the paths under prefix,
// keyed by the path below it: what a tier mounted at prefix holds.
func (s *Store) Placements(prefix string) map[string]Placement {
	out := make(map[string]Placement)
	for _, ps := range s.pathShards {
		ps.mu.RLock()
		for path, p := range ps.placements {
			if rel, ok := strings.CutPrefix(path, prefix); ok && strings.HasPrefix(rel, "/") {
				out[rel] = p
			}
		}
		ps.mu.RUnlock()
	}
	return out
}
