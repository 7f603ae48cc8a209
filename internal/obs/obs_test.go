package obs

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition for a small
// registry — format drift breaks scrapers silently, so it's a golden.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	c := r.Counter("lsdf_test_requests_total", "Total requests.")
	c.Add(7)
	r.GaugeFunc("lsdf_test_inflight", "In-flight requests.", func() int64 { return 3 })
	r.GaugeFunc("lsdf_test_sampled", "Sampled value.", func() int64 { return 42 })
	v := r.CounterVec("lsdf_test_by_tenant_total", "Per-tenant requests.", "tenant")
	v.With("bio").Add(2)
	v.With("alpha").Add(5)
	h := r.Histogram("lsdf_test_latency_ns", "Request latency.")
	h.Observe(1)    // bucket len=1, upper 1
	h.Observe(3)    // bucket len=2, upper 3
	h.Observe(1000) // bucket len=10, upper 1023

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP lsdf_test_by_tenant_total Per-tenant requests.
# TYPE lsdf_test_by_tenant_total counter
lsdf_test_by_tenant_total{tenant="alpha"} 5
lsdf_test_by_tenant_total{tenant="bio"} 2
# HELP lsdf_test_inflight In-flight requests.
# TYPE lsdf_test_inflight gauge
lsdf_test_inflight 3
# HELP lsdf_test_latency_ns Request latency.
# TYPE lsdf_test_latency_ns histogram
lsdf_test_latency_ns_bucket{le="1"} 1
lsdf_test_latency_ns_bucket{le="3"} 2
lsdf_test_latency_ns_bucket{le="1023"} 3
lsdf_test_latency_ns_bucket{le="+Inf"} 3
lsdf_test_latency_ns_sum 1004
lsdf_test_latency_ns_count 3
# HELP lsdf_test_requests_total Total requests.
# TYPE lsdf_test_requests_total counter
lsdf_test_requests_total 7
# HELP lsdf_test_sampled Sampled value.
# TYPE lsdf_test_sampled gauge
lsdf_test_sampled 42
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// promLine matches every legal line of the exposition: comments or
// name{label="v",...} value.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

// ParseablePrometheus validates that every non-empty line of text is
// well-formed exposition. Shared with experiment E19.
func ParseablePrometheus(text string) (lines int, bad []string) {
	for _, ln := range strings.Split(text, "\n") {
		if ln == "" {
			continue
		}
		lines++
		if !promLine.MatchString(ln) {
			bad = append(bad, ln)
		}
	}
	return lines, bad
}

func TestExpositionParseable(t *testing.T) {
	r := New()
	r.RegisterRuntimeMetrics()
	r.Counter("lsdf_a_total", "A.").Add(1)
	r.HistogramVec("lsdf_b_ns", "B.", "op").With("read").Observe(12345)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	n, bad := ParseablePrometheus(buf.String())
	if n == 0 {
		t.Fatal("no output")
	}
	if len(bad) > 0 {
		t.Errorf("unparseable lines: %q", bad)
	}
}

// TestConcurrentUpdatesDuringExposition is the -race stress: many
// writers hammering counters/histograms while scrapers render and
// snapshot. Correctness bar: no race, and final counts add up.
func TestConcurrentUpdatesDuringExposition(t *testing.T) {
	r := New()
	c := r.Counter("lsdf_stress_total", "stress")
	h := r.Histogram("lsdf_stress_ns", "stress")
	v := r.CounterVec("lsdf_stress_vec_total", "stress", "k")
	hv := r.HistogramVec("lsdf_stress_hv_ns", "stress", "k")
	keys := []string{"a", "b", "c", "d"}

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers run until writers finish.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	var writerWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writerWG.Add(1)
		go func(i int) {
			defer writerWG.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				h.Observe(int64(j))
				v.With(keys[j%len(keys)]).Inc()
				hv.With(keys[(i+j)%len(keys)]).Observe(int64(i + j))
			}
		}(i)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Snapshot().Count; got != writers*perWriter {
		t.Errorf("hist count = %d, want %d", got, writers*perWriter)
	}
	var vecSum int64
	for _, k := range keys {
		vecSum += v.With(k).Value()
	}
	if vecSum != writers*perWriter {
		t.Errorf("vec sum = %d, want %d", vecSum, writers*perWriter)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniform on [0, 100µs): p99 should land in
	// the right power-of-two bucket (65536..131071 ns).
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i * 100)) // 0..99900 ns
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	p50, p99 := s.P50(), s.P99()
	if p50 <= 0 || p50 > 65535 {
		t.Errorf("p50 = %d, want within (0, 65535]", p50)
	}
	if p99 < 65536 || p99 > 131071 {
		t.Errorf("p99 = %d, want in [65536, 131071]", p99)
	}
	if p99 < p50 {
		t.Errorf("p99 %d < p50 %d", p99, p50)
	}
	if m := s.Mean(); m < 40000 || m > 60000 {
		t.Errorf("mean = %d, want ~49950", m)
	}
	// Edge cases.
	var empty Histogram
	if q := empty.Snapshot().P99(); q != 0 {
		t.Errorf("empty p99 = %d", q)
	}
	var neg Histogram
	neg.Observe(-5)
	if got := neg.Snapshot().Count; got != 1 {
		t.Errorf("negative observe lost: count=%d", got)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := New()
	a := r.Counter("lsdf_x_total", "x")
	b := r.Counter("lsdf_x_total", "x")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.GaugeFunc("lsdf_x_total", "x", func() int64 { return 0 }) // type conflict must panic
}
