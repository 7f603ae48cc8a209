package replication

import (
	"sync"
	"time"

	"repro/internal/units"
)

// WAN is a fluid model of the inter-site network for the live
// transfer engine: each ordered site pair has a bandwidth and a
// latency, and the engine paces every transferred block so a
// transfer's wall time approximates bytes/bandwidth + latency — the
// same arithmetic internal/netsim runs in virtual time, applied to
// real goroutines. Degrading a link (SetLink with a lower rate)
// immediately slows in-flight transfers, which is how experiments
// show degraded-link behavior without packet simulation.
//
// A nil *WAN disables pacing entirely (LAN-speed copies); a zero
// Rate on a link means that link is unconstrained.
type WAN struct {
	mu      sync.Mutex
	defRate units.Rate
	defLat  time.Duration
	links   map[[2]string]wanLink

	// sleep is swappable for tests.
	sleep func(time.Duration)
}

type wanLink struct {
	rate units.Rate
	lat  time.Duration
}

// NewWAN creates a WAN model whose unlisted links default to rate
// and latency.
func NewWAN(rate units.Rate, latency time.Duration) *WAN {
	return &WAN{
		defRate: rate,
		defLat:  latency,
		links:   make(map[[2]string]wanLink),
		sleep:   time.Sleep,
	}
}

// SetLink overrides one directed site pair — the degraded-link and
// asymmetric-route knob.
func (w *WAN) SetLink(src, dst string, rate units.Rate, latency time.Duration) {
	w.mu.Lock()
	w.links[[2]string{src, dst}] = wanLink{rate: rate, lat: latency}
	w.mu.Unlock()
}

func (w *WAN) link(src, dst string) wanLink {
	w.mu.Lock()
	defer w.mu.Unlock()
	if l, ok := w.links[[2]string{src, dst}]; ok {
		return l
	}
	return wanLink{rate: w.defRate, lat: w.defLat}
}

// Latency returns the one-way latency of the src->dst link; the
// engine pays it once per transfer (stream setup).
func (w *WAN) Latency(src, dst string) time.Duration {
	if w == nil {
		return 0
	}
	return w.link(src, dst).lat
}

// Pace blocks for the time n bytes occupy the src->dst link. The
// engine calls it per block, so a mid-transfer SetLink takes effect
// at the next block boundary.
func (w *WAN) Pace(src, dst string, n int) {
	if w == nil || n <= 0 {
		return
	}
	l := w.link(src, dst)
	if l.rate <= 0 {
		return
	}
	d := time.Duration(float64(n) / float64(l.rate) * float64(time.Second))
	if d > 0 {
		w.sleep(d)
	}
}
