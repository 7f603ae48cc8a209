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
// The placement states and the migration policy here are shared with
// internal/hsm, whose discrete-event Manager models the same life
// cycle at petabyte scale in virtual time; this package moves real
// bytes concurrently.
package tiering

import (
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
	CartridgeSize units.Bytes   // size of auto-created cartridges (tape backends)
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
