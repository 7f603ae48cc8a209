// Package hsm is the discrete-event hierarchical storage manager: it
// models the LSDF's "transparent access over background storage and
// technology changes" (slide 6) at petabyte scale in virtual time —
// files live on disk while hot, migrate to tape when the disk fills
// past a watermark, and are recalled transparently on access.
//
// The placement states, the policy and the migration plan are
// internal/tiering's, which runs the same life cycle on the live
// concurrent data path (real bytes through the ADAL mount table): a
// Manager scan and a TierBackend scan choose their victims with the
// one Policy.Plan. What this package adds is time — tape writes,
// mounts and recalls cost virtual time in a tape.Library — and a
// twin test holds the two to the same placements on one trace.
package hsm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tape"
	"repro/internal/tiering"
	"repro/internal/units"
)

// State is a file's placement state — the tiering package's type, so
// simulated and live placements are the same vocabulary.
type State = tiering.State

// Placement states. Premigrated files have a tape copy but still
// occupy disk; Migrated files are tape-only, and stay in the namespace
// as metadata alone.
const (
	Resident    = tiering.Resident
	Premigrated = tiering.Premigrated
	Migrated    = tiering.Migrated
)

// ErrUnknownFile is returned for operations on unmanaged names.
var ErrUnknownFile = errors.New("hsm: unknown file")

// ErrExists is returned when storing an already managed name.
var ErrExists = errors.New("hsm: file exists")

// File is one managed object.
type File struct {
	Name       string
	Size       units.Bytes
	Created    time.Duration
	LastAccess time.Duration
	State      State
	Cartridge  string // tape location once (pre)migrated

	migrating bool
	recalling bool
	// recall waiters queue while a recall is in flight
	waiters []func(error)
}

// Policy controls migration — the tiering package's type, so one
// watermark/age vocabulary configures both the simulated and the
// live tier.
type Policy = tiering.Policy

// DefaultPolicy is a conventional 85/70 watermark pair with hourly
// scans and LTO-5-sized (1.5 TB) cartridges.
func DefaultPolicy() Policy { return tiering.DefaultPolicy() }

// Manager couples one disk volume with the tape library.
type Manager struct {
	eng     *sim.Engine
	disk    *storage.Array
	volume  string
	lib     *tape.Library
	pol     Policy
	files   map[string]*File
	stop    func()
	curCart string
	cartSeq int

	// stats
	migratedFiles uint64
	migratedBytes units.Bytes
	recalls       uint64
	recalledBytes units.Bytes
	recallLatency sim.Sample
}

// New creates a manager over an existing array volume and starts the
// periodic migration scan.
func New(eng *sim.Engine, disk *storage.Array, volume string, lib *tape.Library, pol Policy) (*Manager, error) {
	if _, ok := disk.Volume(volume); !ok {
		return nil, fmt.Errorf("%w: %q", storage.ErrNoVolume, volume)
	}
	m := &Manager{
		eng:    eng,
		disk:   disk,
		volume: volume,
		lib:    lib,
		pol:    pol,
		files:  make(map[string]*File),
	}
	if pol.ScanInterval > 0 {
		m.stop = eng.Every(pol.ScanInterval, m.Scan)
	}
	return m, nil
}

// Close stops the periodic scan.
func (m *Manager) Close() {
	if m.stop != nil {
		m.stop()
		m.stop = nil
	}
}

// Store places a new file on disk. If the disk is full it runs an
// emergency migration scan once and retries.
func (m *Manager) Store(name string, size units.Bytes) error {
	if _, ok := m.files[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := m.disk.Alloc(m.volume, size); err != nil {
		if !errors.Is(err, storage.ErrFull) {
			return err
		}
		m.Scan() // emergency pass; frees space asynchronously
		if err := m.disk.Alloc(m.volume, size); err != nil {
			return err
		}
	}
	m.files[name] = &File{
		Name:       name,
		Size:       size,
		Created:    m.eng.Now(),
		LastAccess: m.eng.Now(),
		State:      Resident,
	}
	return nil
}

// Lookup returns a snapshot of a file's record.
func (m *Manager) Lookup(name string) (File, bool) {
	f, ok := m.files[name]
	if !ok {
		return File{}, false
	}
	return *f, true
}

// Files returns the number of managed files.
func (m *Manager) Files() int { return len(m.files) }

// Access touches a file; done fires once the bytes are disk-resident.
// Resident and premigrated files complete immediately; migrated files
// trigger a tape recall and end premigrated: the tape copy stays
// valid, so migrating the file again only frees its disk copy.
func (m *Manager) Access(name string, done func(error)) {
	f, ok := m.files[name]
	if !ok {
		m.eng.Schedule(0, func() { done(fmt.Errorf("%w: %q", ErrUnknownFile, name)) })
		return
	}
	f.LastAccess = m.eng.Now()
	if f.State != Migrated {
		m.eng.Schedule(0, func() { done(nil) })
		return
	}
	f.waiters = append(f.waiters, done)
	if f.recalling {
		return
	}
	f.recalling = true
	start := m.eng.Now()
	if err := m.disk.Alloc(m.volume, f.Size); err != nil {
		m.finishRecall(f, err)
		return
	}
	m.lib.Read(f.Cartridge, f.Size, func(err error) {
		if err != nil {
			_ = m.disk.Free(m.volume, f.Size)
			m.finishRecall(f, err)
			return
		}
		f.State = Premigrated
		m.recalls++
		m.recalledBytes += f.Size
		m.recallLatency.ObserveDuration(m.eng.Now() - start)
		m.finishRecall(f, nil)
	})
}

func (m *Manager) finishRecall(f *File, err error) {
	f.recalling = false
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		w(err)
	}
}

// Delete removes a file, releasing its disk space if resident.
func (m *Manager) Delete(name string) error {
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownFile, name)
	}
	if f.State != Migrated {
		if err := m.disk.Free(m.volume, f.Size); err != nil {
			return err
		}
	}
	delete(m.files, name)
	return nil
}

// Scan runs one migration pass: the victims tiering.Policy.Plan picks
// are copied to tape, their disk space freed when the tape write
// finishes in virtual time; a premigrated victim's disk copy is freed
// at once. Copies still in flight count as freed for a later pass.
func (m *Manager) Scan() {
	objs := make([]tiering.Candidate, 0, len(m.files))
	for _, f := range m.files {
		objs = append(objs, tiering.Candidate{Path: f.Name, Size: f.Size, State: f.State,
			Created: epoch.Add(f.Created), LastAccess: epoch.Add(f.LastAccess), InFlight: f.migrating})
	}
	for _, name := range m.pol.Plan(m.disk.Capacity, m.disk.Used(), epoch.Add(m.eng.Now()), objs) {
		m.migrate(m.files[name])
	}
}

// epoch anchors virtual time for the plan, which compares wall-clock
// instants.
var epoch time.Time

func (m *Manager) migrate(f *File) {
	if f.State == Premigrated {
		if m.disk.Free(m.volume, f.Size) == nil {
			m.migrated(f)
		}
		return
	}
	f.migrating = true
	cart := m.pickCartridge(f.Size)
	m.lib.Write(cart, f.Size, func(err error) {
		f.migrating = false
		if err != nil {
			return // stays resident; next scan retries on a fresh cartridge
		}
		// Freeing can race with a concurrent recall only for Migrated
		// files; f was Resident for the whole copy, so this is safe.
		if ferr := m.disk.Free(m.volume, f.Size); ferr != nil {
			return
		}
		f.Cartridge = cart
		m.migrated(f)
	})
}

func (m *Manager) migrated(f *File) {
	f.State = Migrated
	m.migratedFiles++
	m.migratedBytes += f.Size
}

// pickCartridge returns the current fill cartridge, opening a new one
// when the next write would not fit.
func (m *Manager) pickCartridge(size units.Bytes) string {
	if m.curCart != "" {
		if c, ok := m.lib.Cartridge(m.curCart); ok && c.FreeSpace() >= size {
			return m.curCart
		}
	}
	m.cartSeq++
	id := fmt.Sprintf("hsm-%04d", m.cartSeq)
	capacity := m.pol.CartridgeSize
	if capacity < size {
		capacity = size // oversized file gets a dedicated cartridge
	}
	m.lib.AddCartridge(id, capacity)
	m.curCart = id
	return id
}

// Stats is a snapshot of manager counters.
type Stats struct {
	MigratedFiles   uint64
	MigratedBytes   units.Bytes
	Recalls         uint64
	RecalledBytes   units.Bytes
	AvgRecallSec    float64
	P95RecallSec    float64
	DiskUtilization float64
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	return Stats{
		MigratedFiles:   m.migratedFiles,
		MigratedBytes:   m.migratedBytes,
		Recalls:         m.recalls,
		RecalledBytes:   m.recalledBytes,
		AvgRecallSec:    m.recallLatency.Mean(),
		P95RecallSec:    m.recallLatency.Quantile(0.95),
		DiskUtilization: m.disk.Utilization(),
	}
}
