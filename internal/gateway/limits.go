package gateway

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Tenant declares one community's gateway account: its bearer token,
// the namespace prefixes it may touch, and its fair share of the
// front door — a token-bucket request rate and a bound on requests it
// may hold in flight at once. The gateway builds the adal TokenAuth
// and ACL entries from these declarations, so the same auth machinery
// that guards in-process callers guards the wire.
type Tenant struct {
	// Name is the community (KATRIN, bioquant, ...); it becomes the
	// principal's user name and the tenant key in metrics.
	Name string `json:"name"`
	// Token is the bearer token presented in the Authorization header.
	Token string `json:"token"`
	// Prefixes are namespace prefixes granted read+write (default:
	// "/" + Name).
	Prefixes []string `json:"prefixes,omitempty"`
	// ReadPrefixes are additional read-only grants (shared data).
	ReadPrefixes []string `json:"read_prefixes,omitempty"`
	// RPS is the token-bucket refill rate in requests/second
	// (default 200).
	RPS float64 `json:"rps,omitempty"`
	// Burst is the bucket depth (default 2×RPS).
	Burst int `json:"burst,omitempty"`
	// MaxInFlight bounds the tenant's concurrently admitted requests
	// (default 32). Requests beyond it are rejected with 503 and a
	// Retry-After, so one tenant cannot occupy every handler.
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

func (t Tenant) withDefaults() Tenant {
	if len(t.Prefixes) == 0 && len(t.ReadPrefixes) == 0 {
		t.Prefixes = []string{"/" + t.Name}
	}
	if t.RPS <= 0 {
		t.RPS = 200
	}
	if t.Burst <= 0 {
		t.Burst = int(2 * t.RPS)
	}
	if t.MaxInFlight <= 0 {
		t.MaxInFlight = 32
	}
	return t
}

// TenantStats is one tenant's observable traffic. The counters live
// in the gateway's obs registry (lsdf_gateway_*_total{tenant=...});
// this struct is the stable JSON view of them that /v1/metrics has
// always served.
type TenantStats struct {
	Requests  int64 // admitted requests
	Throttled int64 // 429s from the rate limiter
	Rejected  int64 // 503s from admission control
	BytesIn   int64 // object/ingest payload bytes received
	BytesOut  int64 // object payload bytes served
	InFlight  int64 // currently admitted
}

// tenantState is the runtime half of a Tenant: its token bucket,
// admission gate and counters. The bucket is a classic continuous
// refill: tokens accrue at rps up to burst, one request costs one
// token, and a dry bucket reports how long until the next token so
// the 429 can carry an honest Retry-After. The traffic counters are
// labeled series in the gateway's obs registry, so the same numbers
// back /v1/metrics JSON and the /metrics Prometheus exposition.
type tenantState struct {
	name        string
	maxInFlight int64

	mu     sync.Mutex // guards tokens/last
	tokens float64
	rps    float64
	burst  float64
	last   time.Time

	inFlight  atomic.Int64
	requests  *obs.Counter
	throttled *obs.Counter
	rejected  *obs.Counter
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
}

// newTenantState takes t with its defaults applied (New applies them).
func newTenantState(t Tenant, m gwMetrics) *tenantState {
	return &tenantState{
		name:        t.Name,
		maxInFlight: int64(t.MaxInFlight),
		tokens:      float64(t.Burst),
		rps:         t.RPS,
		burst:       float64(t.Burst),
		last:        time.Now(),
		requests:    m.requests.With(t.Name),
		throttled:   m.throttled.With(t.Name),
		rejected:    m.rejected.With(t.Name),
		bytesIn:     m.bytesIn.With(t.Name),
		bytesOut:    m.bytesOut.With(t.Name),
	}
}

// allow takes one token, or reports how long until one accrues.
func (ts *tenantState) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	elapsed := now.Sub(ts.last).Seconds()
	if elapsed > 0 {
		ts.tokens = math.Min(ts.burst, ts.tokens+elapsed*ts.rps)
		ts.last = now
	}
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	need := (1 - ts.tokens) / ts.rps
	return false, time.Duration(need * float64(time.Second))
}

// admit claims an in-flight slot; release undoes it.
func (ts *tenantState) admit() bool {
	if ts.inFlight.Add(1) > ts.maxInFlight {
		ts.inFlight.Add(-1)
		return false
	}
	return true
}

func (ts *tenantState) release() { ts.inFlight.Add(-1) }

func (ts *tenantState) stats() TenantStats {
	return TenantStats{
		Requests:  ts.requests.Value(),
		Throttled: ts.throttled.Value(),
		Rejected:  ts.rejected.Value(),
		BytesIn:   ts.bytesIn.Value(),
		BytesOut:  ts.bytesOut.Value(),
		InFlight:  ts.inFlight.Load(),
	}
}
