// Package tiering is the live tiered data path of the facility: a
// TierBackend federates a hot backend (disk: MemFS, LocalFS, the DFS)
// with a cold backend (tape or object storage) behind the ordinary
// adal.Backend contract, so every caller that reaches storage through
// the ADAL mount table — ingest, the DataBrowser, MapReduce output
// readers — gets the paper's "transparent access over background
// storage and technology changes" for free: files live on the hot
// tier while hot, migrate to the cold tier past a utilization
// watermark, and are recalled invisibly on Open.
//
// The placement states and the migration plan (Policy.Plan) are shared
// with internal/hsm, whose discrete-event Manager models the same life
// cycle at petabyte scale in virtual time; this package moves real
// bytes concurrently.
package tiering

import (
	"sort"
	"time"

	"repro/internal/metadata"
	"repro/internal/units"
)

// State is a file's placement state: the type of the row the tier
// journals in the metadata store (metadata.Placement), so the state it
// reports and the state it recovers are one vocabulary.
type State = metadata.TierState

// Placement states. Premigrated files have a cold copy but still
// occupy hot storage; Migrated files are cold-only, and their row is
// all the hot side keeps of them.
const (
	Resident    = metadata.TierResident
	Premigrated = metadata.TierPremigrated
	Migrated    = metadata.TierMigrated
)

// Policy controls migration. The same hysteresis pair governs the
// discrete-event hsm.Manager and the live TierBackend: migration
// starts when hot utilization exceeds HighWatermark and stops once
// the projection drops below LowWatermark, oldest access first.
type Policy struct {
	HighWatermark float64       // start migrating above this hot-tier utilization
	LowWatermark  float64       // stop once utilization is below this
	MinAge        time.Duration // never migrate files younger than this
	ScanInterval  time.Duration // period of the migration scan
	CartridgeSize units.Bytes   // size of the cartridges the hsm model fills; the live tier ignores it
}

// DefaultPolicy is a conventional 85/70 watermark pair with hourly
// scans and LTO-5-sized (1.5 TB) cartridges.
func DefaultPolicy() Policy {
	return Policy{
		HighWatermark: 0.85,
		LowWatermark:  0.70,
		MinAge:        time.Hour,
		ScanInterval:  time.Hour,
		CartridgeSize: units.Bytes(1500) * units.GB,
	}
}

// Candidate is one object as a migration plan sees it.
type Candidate struct {
	Path       string
	Size       units.Bytes
	State      State
	Created    time.Time
	LastAccess time.Time
	Pinned     bool
	Writing    bool // created, not yet committed
	InFlight   bool // a copy or migration toward the cold tier is under way
}

// over reports whether used bytes of capacity exceed the high
// watermark. A zero capacity never does.
func (p Policy) over(capacity, used units.Bytes) bool {
	return capacity > 0 && float64(used) > p.HighWatermark*float64(capacity)
}

// Plan is one migration pass over objs, a tier of capacity bytes of
// which used are hot, at time now: nothing while used is at or below
// the high watermark (hysteresis), otherwise the paths to move to the
// cold tier, in order, until the projection drops below the low
// watermark. Bytes already in flight count as freed, so an overlapping
// pass plans only what the earlier one left. Victims go oldest access
// first, path breaking ties; writing, pinned, in-flight and migrated
// objects and those younger than MinAge stay. A Premigrated victim
// only has its hot copy dropped.
func (p Policy) Plan(capacity, used units.Bytes, now time.Time, objs []Candidate) []string {
	if !p.over(capacity, used) {
		return nil
	}
	toFree := used - units.Bytes(p.LowWatermark*float64(capacity))
	var cands []Candidate
	for _, c := range objs {
		if c.InFlight && c.State != Migrated {
			toFree -= c.Size
		}
		if c.Writing || c.InFlight || c.Pinned || c.State == Migrated || now.Sub(c.Created) < p.MinAge {
			continue
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].LastAccess.Equal(cands[j].LastAccess) {
			return cands[i].LastAccess.Before(cands[j].LastAccess)
		}
		return cands[i].Path < cands[j].Path
	})
	var planned units.Bytes
	var picked []string
	for _, c := range cands {
		if planned >= toFree {
			break
		}
		planned += c.Size
		picked = append(picked, c.Path)
	}
	return picked
}
