package gateway_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/units"
)

func benchStore(b *testing.B, fac *facility.Facility, path string, size int) []byte {
	b.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	w, err := fac.Layer.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return data
}

func benchSetup(b *testing.B, fopts facility.Options) (*facility.Facility, *client.Client) {
	b.Helper()
	fac, _, hs := startGateway(b, fopts, gateway.Config{Tenants: []gateway.Tenant{{
		Name: "bench", Token: "bench-token", Prefixes: []string{"/"},
		RPS: 1e9, Burst: 1 << 30, MaxInFlight: 1 << 20,
	}}})
	return fac, newClient(b, hs, "bench-token", client.Options{MaxRetries: -1})
}

// BenchmarkGatewayReadSmall is the metadata-dominated read: a 64 KiB
// object where per-request HTTP cost is the term being measured.
func BenchmarkGatewayReadSmall(b *testing.B) {
	fac, c := benchSetup(b, facility.Options{Sites: []string{"near"}})
	benchStore(b, fac, "/sites/bench/small", int(64*units.KiB))
	ctx := context.Background()
	b.SetBytes(int64(64 * units.KiB))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadObject(ctx, "/sites/bench/small"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayReadCachedLarge streams a 2 MiB object served from
// the read cache's memory tier — the bandwidth-bound path the E17
// probe bounds at 2x of in-process.
func BenchmarkGatewayReadCachedLarge(b *testing.B) {
	fac, c := benchSetup(b, facility.Options{
		Sites: []string{"far1"}, ReadCacheMemory: 16 * units.MiB,
	})
	benchStore(b, fac, "/sites/bench/large", int(2*units.MiB))
	ctx := context.Background()
	buf := make([]byte, int(2*units.MiB))
	read := func() {
		rc, err := c.Get(ctx, "/sites/bench/large")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(rc, buf); err != nil {
			b.Fatal(err)
		}
		rc.Close()
	}
	read() // warm the cache
	b.SetBytes(int64(2 * units.MiB))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// BenchmarkGatewayStat is the pure-metadata request: no payload, the
// floor for any gateway round trip.
func BenchmarkGatewayStat(b *testing.B) {
	fac, c := benchSetup(b, facility.Options{Sites: []string{"near"}})
	benchStore(b, fac, "/sites/bench/stat-me", 4096)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stat(ctx, "/sites/bench/stat-me"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayIngest is the durable write path: 4 KiB objects
// stored and registered in the metadata store, one per request
// (single) or sixteen with a project and one tag (batch16, the shape
// of the facility benchmark's ingest-durable workload).
func BenchmarkGatewayIngest(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
		tags  []string
	}{{"single", 1, nil}, {"batch16", 16, []string{"raw"}}} {
		b.Run(bc.name, func(b *testing.B) {
			_, c := benchSetup(b, facility.Options{Sites: []string{"near"}})
			ctx := context.Background()
			data := make([]byte, 4096)
			objs := make([]gateway.IngestObject, bc.batch)
			b.SetBytes(int64(bc.batch * len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range objs {
					objs[j] = gateway.IngestObject{
						Path:    fmt.Sprintf("/sites/bench/ingest-%08d-%02d.raw", i, j),
						Project: "bench",
						Data:    data,
						Tags:    bc.tags,
					}
				}
				res, err := c.Ingest(ctx, objs)
				if err != nil {
					b.Fatal(err)
				}
				if res.Registered != bc.batch {
					b.Fatalf("not registered: %+v", res.Results)
				}
			}
		})
	}
}
