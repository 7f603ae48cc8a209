package replication

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"repro/internal/adal"
)

// ErrSiteDown is returned by every operation against a site marked
// down. The gate sits in front of the backend — a down MemFS site
// keeps its bytes, exactly like a real site behind a severed WAN
// link — and is also checked on every Read of an already-open
// stream, so an outage fails in-flight reads too (which is what the
// federated reader's mid-stream failover recovers from).
var ErrSiteDown = errors.New("replication: site down")

// Site is one storage location participating in the federation: a
// name, a backend, and a distance that orders read preference (the
// "nearest replica" metric — hop count, RTT class, or administrative
// preference; lower is nearer).
type Site struct {
	Name     string
	Backend  adal.Backend
	Distance int

	down atomic.Bool
}

// NewSite wraps a backend as a federation site.
func NewSite(name string, b adal.Backend, distance int) *Site {
	return &Site{Name: name, Backend: b, Distance: distance}
}

// SetDown marks the site failed (true) or revived (false). Down
// sites fail every operation, including reads in flight.
func (s *Site) SetDown(down bool) { s.down.Store(down) }

// IsDown reports the site's health gate.
func (s *Site) IsDown() bool { return s.down.Load() }

func (s *Site) errDown() error {
	return fmt.Errorf("%w: %s", ErrSiteDown, s.Name)
}

// openAt gates Backend.Open, positions the stream at offset (a seek
// wherever the site's reader can, so resuming costs O(1), not
// O(offset)) and wraps it so a kill mid-read surfaces as ErrSiteDown
// on the next Read. It is the one way a site is read: the failover
// reader's opens and mid-stream switches, under client reads and engine
// copies alike, and the engine's scrubs.
func (s *Site) openAt(path string, offset int64) (io.ReadCloser, error) {
	if s.IsDown() {
		return nil, s.errDown()
	}
	r, err := s.Backend.Open(path)
	if err != nil {
		return nil, err
	}
	if err := adal.SkipTo(r, offset); err != nil {
		r.Close()
		return nil, err
	}
	return &gatedReader{site: s, r: r}, nil
}

type gatedReader struct {
	site *Site
	r    io.ReadCloser
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.site.IsDown() {
		return 0, g.site.errDown()
	}
	return g.r.Read(p)
}

func (g *gatedReader) Close() error { return g.r.Close() }

// create gates Backend.Create; a kill mid-write fails the Write/Close.
func (s *Site) create(path string) (io.WriteCloser, error) {
	if s.IsDown() {
		return nil, s.errDown()
	}
	w, err := s.Backend.Create(path)
	if err != nil {
		return nil, err
	}
	return &gatedWriter{site: s, w: w}, nil
}

// createFresh is create over whatever the site already holds at path:
// a failed attempt's leftovers, a stale replica being refreshed, the
// orphan of a home write the site died under. Callers own the path — no
// other writer of theirs is on it; a name some other writer still holds
// is not visible to stat, and the create stays refused.
func (s *Site) createFresh(path string) (io.WriteCloser, error) {
	w, err := s.create(path)
	if errors.Is(err, adal.ErrExists) {
		if _, serr := s.stat(path); serr == nil {
			_ = s.remove(path)
			w, err = s.create(path)
		}
	}
	return w, err
}

type gatedWriter struct {
	site *Site
	w    io.WriteCloser
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if g.site.IsDown() {
		return 0, g.site.errDown()
	}
	return g.w.Write(p)
}

func (g *gatedWriter) Close() error {
	if g.site.IsDown() {
		// Still close the underlying writer so the backend releases
		// its reservation, but report the outage.
		_ = g.w.Close()
		return g.site.errDown()
	}
	return g.w.Close()
}

func (s *Site) stat(path string) (adal.FileInfo, error) {
	if s.IsDown() {
		return adal.FileInfo{}, s.errDown()
	}
	return s.Backend.Stat(path)
}

func (s *Site) list(prefix string) ([]adal.FileInfo, error) {
	if s.IsDown() {
		return nil, s.errDown()
	}
	return s.Backend.List(prefix)
}

func (s *Site) remove(path string) error {
	if s.IsDown() {
		return s.errDown()
	}
	return s.Backend.Remove(path)
}

// sortSites orders sites by distance, name as tie-break — the
// deterministic "nearest first" preference used by reads and by the
// engine's source/destination selection.
func sortSites(sites []*Site) {
	slices.SortFunc(sites, func(a, b *Site) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Name, b.Name))
	})
}
