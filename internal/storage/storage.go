// Package storage models the LSDF disk systems (slide 7: a 0.5 PB DDN
// array and a 1.4 PB IBM array behind the 10 GE backbone) at the level
// that matters for the paper's experiments: capacity accounting per
// volume and processor-sharing of the array's aggregate controller
// bandwidth among concurrent transfers.
package storage

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// ErrFull is returned when an allocation exceeds remaining capacity.
var ErrFull = errors.New("storage: array full")

// ErrNoVolume is returned when addressing an unknown volume.
var ErrNoVolume = errors.New("storage: no such volume")

// ErrQuota is returned when an allocation exceeds the volume quota.
var ErrQuota = errors.New("storage: volume quota exceeded")

// Volume is a named slice of an array with an optional quota.
type Volume struct {
	Name  string
	Quota units.Bytes // 0 = unlimited (bounded by the array)
	used  units.Bytes
}

// Used returns the bytes allocated in the volume.
func (v *Volume) Used() units.Bytes { return v.used }

// Array is one disk storage system.
type Array struct {
	Name      string
	Capacity  units.Bytes
	Bandwidth units.Rate // aggregate controller throughput

	eng     *sim.Engine
	used    units.Bytes
	usedTW  *sim.TimeWeighted
	volumes map[string]*Volume

	// processor-sharing transfer state
	active  map[*transfer]struct{}
	nextEv  *sim.Event
	written units.Bytes
	read    units.Bytes
	nextID  int
}

type transfer struct {
	id        int
	remaining float64
	last      time.Duration
	done      func()
}

// NewArray creates an array model.
func NewArray(eng *sim.Engine, name string, capacity units.Bytes, bandwidth units.Rate) *Array {
	return &Array{
		Name:      name,
		Capacity:  capacity,
		Bandwidth: bandwidth,
		eng:       eng,
		usedTW:    sim.NewTimeWeighted(eng),
		volumes:   make(map[string]*Volume),
		active:    make(map[*transfer]struct{}),
	}
}

// CreateVolume registers a named volume; quota 0 means unlimited.
func (a *Array) CreateVolume(name string, quota units.Bytes) (*Volume, error) {
	if _, ok := a.volumes[name]; ok {
		return nil, fmt.Errorf("storage: volume %q exists", name)
	}
	v := &Volume{Name: name, Quota: quota}
	a.volumes[name] = v
	return v, nil
}

// Volume returns a volume by name.
func (a *Array) Volume(name string) (*Volume, bool) {
	v, ok := a.volumes[name]
	return v, ok
}

// Volumes lists volumes sorted by name.
func (a *Array) Volumes() []*Volume {
	out := make([]*Volume, 0, len(a.volumes))
	for _, v := range a.volumes {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Alloc reserves b bytes in the named volume.
func (a *Array) Alloc(volume string, b units.Bytes) error {
	if b < 0 {
		return fmt.Errorf("storage: negative allocation %d", b)
	}
	v, ok := a.volumes[volume]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoVolume, volume)
	}
	if a.used+b > a.Capacity {
		return fmt.Errorf("%w: %s + %s > %s", ErrFull, a.used.SI(), b.SI(), a.Capacity.SI())
	}
	if v.Quota > 0 && v.used+b > v.Quota {
		return fmt.Errorf("%w: volume %q", ErrQuota, volume)
	}
	a.used += b
	v.used += b
	a.usedTW.Set(float64(a.used))
	return nil
}

// Free releases b bytes from the named volume.
func (a *Array) Free(volume string, b units.Bytes) error {
	v, ok := a.volumes[volume]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoVolume, volume)
	}
	if b > v.used {
		return fmt.Errorf("storage: freeing %s from volume %q holding %s", b.SI(), volume, v.used.SI())
	}
	v.used -= b
	a.used -= b
	a.usedTW.Set(float64(a.used))
	return nil
}

// Used returns the allocated byte count.
func (a *Array) Used() units.Bytes { return a.used }

// FreeSpace returns the unallocated byte count.
func (a *Array) FreeSpace() units.Bytes { return a.Capacity - a.used }

// Utilization returns used/capacity at the current instant.
func (a *Array) Utilization() float64 {
	if a.Capacity == 0 {
		return 0
	}
	return float64(a.used) / float64(a.Capacity)
}

// MeanUtilization returns the time-averaged utilization.
func (a *Array) MeanUtilization() float64 {
	if a.Capacity == 0 {
		return 0
	}
	return a.usedTW.Mean() / float64(a.Capacity)
}

// BytesWritten and BytesRead report cumulative transfer volumes.
func (a *Array) BytesWritten() units.Bytes { return a.written }

// BytesRead reports cumulative read volume.
func (a *Array) BytesRead() units.Bytes { return a.read }

// Write models moving b bytes into the array; done fires when the
// transfer drains through the shared controller bandwidth. Capacity
// accounting is the caller's business (Alloc/Free), keeping the
// bandwidth model orthogonal to placement decisions.
func (a *Array) Write(b units.Bytes, done func()) {
	a.written += b
	a.startTransfer(b, done)
}

// Read models moving b bytes out of the array.
func (a *Array) Read(b units.Bytes, done func()) {
	a.read += b
	a.startTransfer(b, done)
}

func (a *Array) startTransfer(b units.Bytes, done func()) {
	if b <= 0 {
		if done != nil {
			a.eng.Schedule(0, done)
		}
		return
	}
	t := &transfer{id: a.nextID, remaining: float64(b), last: a.eng.Now(), done: done}
	a.nextID++
	a.drain()
	a.active[t] = struct{}{}
	a.reschedule()
}

// drain advances all active transfers at the current equal share.
func (a *Array) drain() {
	now := a.eng.Now()
	n := len(a.active)
	if n == 0 {
		return
	}
	share := float64(a.Bandwidth) / float64(n)
	for t := range a.active {
		dt := (now - t.last).Seconds()
		if dt > 0 {
			moved := share * dt
			if moved > t.remaining {
				moved = t.remaining
			}
			t.remaining -= moved
		}
		t.last = now
	}
}

func (a *Array) reschedule() {
	if a.nextEv != nil {
		a.eng.Cancel(a.nextEv)
		a.nextEv = nil
	}
	n := len(a.active)
	if n == 0 {
		return
	}
	share := float64(a.Bandwidth) / float64(n)
	if share <= 0 {
		return
	}
	eta := math.Inf(1)
	for t := range a.active {
		if s := t.remaining / share; s < eta {
			eta = s
		}
	}
	delay := time.Duration(eta * float64(time.Second))
	if delay < time.Nanosecond {
		// Guarantee clock progress: a residue above the completion
		// epsilon must not re-arm at zero delay forever.
		delay = time.Nanosecond
	}
	a.nextEv = a.eng.Schedule(delay, a.complete)
}

func (a *Array) complete() {
	a.nextEv = nil
	a.drain()
	const eps = 0.5
	var finished []*transfer
	for t := range a.active {
		if t.remaining <= eps {
			finished = append(finished, t)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].id < finished[j].id })
	for _, t := range finished {
		delete(a.active, t)
	}
	a.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}
