package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/mapreduce"
)

// TestNamespaceIsolation pins the multi-tenant confidentiality
// contract: no request a tenant can make — list, stat, read, query,
// job status — ever surfaces another community's namespace.
func TestNamespaceIsolation(t *testing.T) {
	_, _, hs := startGateway(t, facility.Options{},
		gateway.Config{Tenants: []gateway.Tenant{
			{Name: "alice", Token: "ta", Prefixes: []string{"/ddn/alice", "/hdfs/alice"}},
			{Name: "bob", Token: "tb", Prefixes: []string{"/ddn/bob", "/hdfs/bob"}},
		}})
	ctx := context.Background()
	noRetry := client.Options{MaxRetries: -1}
	alice := newClient(t, hs, "ta", noRetry)
	bob := newClient(t, hs, "tb", noRetry)

	// Both communities ingest into the shared project "shared".
	for i := 0; i < 5; i++ {
		if _, err := alice.PutObject(ctx, fmt.Sprintf("/ddn/alice/a-%d.raw", i), []byte("alice"), "shared", "raw"); err != nil {
			t.Fatal(err)
		}
		if _, err := bob.PutObject(ctx, fmt.Sprintf("/ddn/bob/b-%d.raw", i), []byte("bob"), "shared", "raw"); err != nil {
			t.Fatal(err)
		}
	}

	// Listing your own prefix works; listing the shared parent or the
	// other tenant's prefix is denied outright.
	own, err := alice.List(ctx, "/ddn/alice")
	if err != nil || len(own) != 5 {
		t.Fatalf("alice list own: %v (%d entries)", err, len(own))
	}
	if _, err := alice.List(ctx, "/ddn"); !client.IsDenied(err) {
		t.Fatalf("alice list /ddn: %v, want denied", err)
	}
	if _, err := alice.List(ctx, "/ddn/bob"); !client.IsDenied(err) {
		t.Fatalf("alice list bob's prefix: %v, want denied", err)
	}
	if _, err := alice.ReadObject(ctx, "/ddn/bob/b-0.raw"); !client.IsDenied(err) {
		t.Fatal("alice read bob's object not denied")
	}

	// Metadata queries have no prefix gate — the per-dataset ACL
	// filter is the only thing standing between tenants. A query over
	// the shared project must return only the caller's datasets.
	for name, c := range map[string]*client.Client{"alice": alice, "bob": bob} {
		found, err := c.Find(ctx, client.FindQuery{Project: "shared"})
		if err != nil {
			t.Fatal(err)
		}
		if len(found) != 5 {
			t.Fatalf("%s sees %d shared datasets, want only their own 5", name, len(found))
		}
		for _, ds := range found {
			if !bytes.Contains([]byte(ds.Path), []byte("/"+name+"/")) {
				t.Fatalf("%s's query leaked %s", name, ds.Path)
			}
		}
	}

	// A failed authentication leaks nothing either — not even whether
	// the prefix exists.
	stranger := newClient(t, hs, "no-such-token", noRetry)
	if _, err := stranger.List(ctx, "/ddn/alice"); err == nil || client.IsNotFound(err) {
		t.Fatalf("unauthenticated list: %v", err)
	}

	// Job existence is tenant-private: bob probing alice's job IDs
	// gets 404, indistinguishable from an ID that never existed.
	js, err := alice.SubmitJob(ctx, gateway.JobRequest{
		Job: "linecount", Inputs: []string{"/alice/in.txt"}, OutputDir: "/alice/out"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Job(ctx, js.ID); !client.IsNotFound(err) {
		t.Fatalf("bob sees alice's job: %v", err)
	}
	if _, err := bob.WaitJob(ctx, js.ID, time.Millisecond); !client.IsNotFound(err) {
		t.Fatalf("bob waits on alice's job: %v", err)
	}
	if jobs, err := bob.Jobs(ctx); err != nil || len(jobs) != 0 {
		t.Fatalf("bob's job list: %v %+v", err, jobs)
	}
}

// TestJobWaitIsTenantPrivate: asking to wait on another tenant's
// running job answers 404 at once — it never parks, so how long the
// answer takes says nothing about whether the job exists.
func TestJobWaitIsTenantPrivate(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, hs := startJobGateway(t, func() (*mapreduce.Result, error) {
		<-release
		return &mapreduce.Result{}, nil
	}, gateway.Tenant{Name: "bob", Token: "tbob"})
	js, err := newClient(t, hs, "tb").SubmitJob(context.Background(), bioJob)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{js.ID, "j-999999"} {
		if code, _, err := askJob(hs, "tbob", id, "3600000"); err != nil || code != http.StatusNotFound {
			t.Fatalf("bob's wait on %s: %d %v, want 404 at once", id, code, err)
		}
	}
}

// TestOverloadIsolation is the fairness half of multi-tenancy: one
// tenant saturating its limits eats 429s/503s itself, while a quiet
// tenant's requests keep being admitted with bounded latency. Run
// under -race in CI.
func TestOverloadIsolation(t *testing.T) {
	_, srv, hs := startGateway(t, facility.Options{},
		gateway.Config{Tenants: []gateway.Tenant{
			{Name: "hog", Token: "th", Prefixes: []string{"/ddn/hog"}, RPS: 50, Burst: 20, MaxInFlight: 4},
			{Name: "quiet", Token: "tq", Prefixes: []string{"/ddn/quiet"}, RPS: 5000, MaxInFlight: 32},
		}})
	ctx := context.Background()
	noRetry := client.Options{MaxRetries: -1}
	quiet := newClient(t, hs, "tq", noRetry)

	if _, err := quiet.PutObject(ctx, "/ddn/quiet/probe.raw", []byte("probe"), ""); err != nil {
		t.Fatal(err)
	}

	// 32 goroutines hammer the hog tenant flat out for the duration —
	// far past both its rate and its in-flight bound.
	const dur = 700 * time.Millisecond
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hogOK, hogRejected atomic.Int64
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient(t, hs, "th", noRetry)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := hc.Metrics(ctx); err != nil {
					hogRejected.Add(1)
				} else {
					hogOK.Add(1)
				}
			}
		}()
	}

	// Meanwhile the quiet tenant reads sequentially, measuring what
	// the front door feels like next to a noisy neighbor.
	var lat []time.Duration
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		start := time.Now()
		if _, err := quiet.ReadObject(ctx, "/ddn/quiet/probe.raw"); err != nil {
			t.Errorf("quiet tenant failed during hog saturation: %v", err)
		}
		lat = append(lat, time.Since(start))
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if hogRejected.Load() == 0 {
		t.Fatal("hog was never throttled/rejected — the limits did nothing")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if p99 > 250*time.Millisecond {
		t.Errorf("quiet tenant p99 = %v under hog saturation, want < 250ms", p99)
	}

	stats := srv.Stats()
	if stats["hog"].Throttled == 0 {
		t.Errorf("hog throttled count = 0 with RPS 50 under 32-way hammering: %+v", stats["hog"])
	}
	if stats["quiet"].Throttled != 0 || stats["quiet"].Rejected != 0 {
		t.Errorf("quiet tenant was throttled by the hog's load: %+v", stats["quiet"])
	}
	t.Logf("hog: ok=%d rejected=%d stats=%+v; quiet: %d reads, p99=%v",
		hogOK.Load(), hogRejected.Load(), stats["hog"], len(lat), p99)
}

// TestAdmissionBound pins the in-flight limit mechanically: with
// MaxInFlight=2 and handlers parked mid-stream, the third concurrent
// request is rejected with a 503 envelope and Retry-After — it does
// not queue into the facility.
func TestAdmissionBound(t *testing.T) {
	_, _, hs := startGateway(t, facility.Options{},
		gateway.Config{Tenants: []gateway.Tenant{
			{Name: "narrow", Token: "tn", Prefixes: []string{"/ddn/narrow"}, RPS: 10000, MaxInFlight: 2},
		}})
	ctx := context.Background()
	noRetry := client.Options{MaxRetries: -1}
	c := newClient(t, hs, "tn", noRetry)

	// Big enough that loopback socket buffers (server send + client
	// receive) cannot swallow it whole — the handlers must stay
	// parked mid-copyStream holding their admission slots.
	big := bytes.Repeat([]byte("x"), 24<<20)
	if _, err := c.PutObject(ctx, "/ddn/narrow/big.raw", big, ""); err != nil {
		t.Fatal(err)
	}

	// Two streaming reads park in the handlers: opened but unread, so
	// the server blocks on the socket (connection backpressure) and
	// the admission slots stay occupied.
	var parked []interface{ Close() error }
	for i := 0; i < 2; i++ {
		rc, err := c.Get(ctx, "/ddn/narrow/big.raw")
		if err != nil {
			t.Fatal(err)
		}
		parked = append(parked, rc)
	}
	defer func() {
		for _, rc := range parked {
			rc.Close()
		}
	}()
	// Give the two handlers a moment to be admitted and block.
	time.Sleep(50 * time.Millisecond)

	_, err := c.Metrics(ctx)
	if !client.IsOverload(err) {
		t.Fatalf("third concurrent request: %v, want 503 overloaded", err)
	}

	// Releasing a slot re-opens the door.
	parked[0].Close()
	parked = parked[1:]
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Metrics(ctx); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after closing a parked stream")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
