package gateway_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/adal"
	"repro/internal/facility"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
)

// TestDrainInProcess pins the drain contract against the in-process
// server: a streaming read caught mid-flight by Drain runs to
// completion with correct bytes, new requests get 503 + Retry-After
// the moment the flag is up, and Drain returns only after the last
// in-flight response finishes.
func TestDrainInProcess(t *testing.T) {
	_, srv, hs := startGateway(t, facility.Options{},
		gateway.Config{Tenants: []gateway.Tenant{
			{Name: "bio", Token: "tb", Prefixes: []string{"/ddn/bio"}, RPS: 10000, MaxInFlight: 16},
		}})
	ctx := context.Background()
	noRetry := client.Options{MaxRetries: -1}
	c := newClient(t, hs, "tb", noRetry)

	big := bytes.Repeat([]byte("drain-me "), 3<<20) // 27 MiB: cannot fit in socket buffers
	if _, err := c.PutObject(ctx, "/ddn/bio/big.raw", big, ""); err != nil {
		t.Fatal(err)
	}

	rc, err := c.Get(ctx, "/ddn/bio/big.raw")
	if err != nil {
		t.Fatal(err)
	}
	// Read a sliver so the handler is demonstrably mid-stream, then
	// leave the rest in flight.
	head := make([]byte, 64*1024)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(dctx)
	}()

	// The drain gate must come up while our stream is still open.
	deadline := time.Now().Add(2 * time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Draining() never became true")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Metrics(ctx)
	if !client.IsOverload(err) {
		t.Fatalf("new request during drain: %v, want 503", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a stream was still in flight", err)
	default:
	}

	// The in-flight stream finishes, byte-perfect.
	rest, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("in-flight stream broken by drain: %v", err)
	}
	if got := append(head, rest...); !bytes.Equal(got, big) {
		t.Fatalf("drained stream returned %d bytes, want %d", len(got), len(big))
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrainEndsParkedJobWait: a job wait parked at the gateway holds
// an in-flight slot, so Drain must end it — it answers the job's
// status as it stands, running, with 200 — rather than wait it out.
func TestDrainEndsParkedJobWait(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, hs := startJobGateway(t, func() (*mapreduce.Result, error) {
		<-release
		return &mapreduce.Result{}, nil
	})
	js, err := newClient(t, hs, "tb").SubmitJob(context.Background(), bioJob)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		code int
		st   gateway.JobStatus
		err  error
	}
	parked := make(chan answer, 1)
	go func() {
		code, st, err := askJob(hs, "tb", js.ID, "3600000")
		parked <- answer{code, st, err}
	}()
	waitInFlight(t, srv, "bio", 1)
	dctx, cancel := context.WithTimeout(context.Background(), gateway.MaxJobWait/2)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain waited out a parked job wait: %v", err)
	}
	if a := <-parked; a.err != nil || a.code != http.StatusOK || a.st.State != gateway.JobRunning {
		t.Fatalf("parked wait answered %d %+v %v, want 200 running", a.code, a.st, a.err)
	}
}

// ---- cross-process harness --------------------------------------------
//
// The graceful-drain and kill -9 tests run lsdfd's production serving
// path (gateway.ServeDraining over a real facility) in a child
// process — this test binary re-executed with the child environment
// set, the E15 pattern extended across the HTTP boundary.

const (
	gwChildEnv = "LSDF_GW_CHILD"
	gwDataEnv  = "LSDF_GW_DATA"
	gwWALEnv   = "LSDF_GW_WAL"
	gwAddrEnv  = "LSDF_GW_ADDRFILE"
	gwToken    = "child-token"
)

// TestMain doubles this binary as the lsdfd child.
func TestMain(m *testing.M) {
	if os.Getenv(gwChildEnv) != "" {
		gatewayChildMain()
	}
	os.Exit(m.Run())
}

// gatewayChildMain is what cmd/lsdfd does, in miniature: facility
// (durable metadata when a WAL dir is given), a LocalFS data mount,
// a gateway, ServeDraining on SIGTERM. It never returns normally —
// it exits 0 after a clean drain, or is SIGKILLed.
func gatewayChildMain() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "gw child:", err)
		os.Exit(2)
	}
	fac, err := facility.New(facility.Options{DFSNodes: 2, WALDir: os.Getenv(gwWALEnv)})
	if err != nil {
		die(err)
	}
	local, err := adal.NewLocalFS("data", os.Getenv(gwDataEnv))
	if err != nil {
		die(err)
	}
	if err := fac.Layer.Mount("/data", local); err != nil {
		die(err)
	}
	srv, err := gateway.ForFacility(fac, gateway.Config{
		Tenants: []gateway.Tenant{{Name: "child", Token: gwToken, Prefixes: []string{"/"},
			RPS: 1e6, MaxInFlight: 256}},
	})
	if err != nil {
		die(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die(err)
	}
	// Publish the port atomically: write aside, then rename.
	addrFile := os.Getenv(gwAddrEnv)
	if err := os.WriteFile(addrFile+".tmp", []byte(ln.Addr().String()), 0o644); err != nil {
		die(err)
	}
	if err := os.Rename(addrFile+".tmp", addrFile); err != nil {
		die(err)
	}
	if err := srv.ServeDraining(&http.Server{}, ln, 30*time.Second, syscall.SIGTERM); err != nil {
		die(err)
	}
	os.Exit(0)
}

// startChild launches the child lsdfd and waits until it serves.
func startChild(t *testing.T, dataDir, walDir string) (*exec.Cmd, *client.Client) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		gwChildEnv+"=1", gwDataEnv+"="+dataDir, gwWALEnv+"="+walDir, gwAddrEnv+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = string(data)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c, err := client.New("http://"+addr, gwToken, client.Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if err := c.Health(context.Background()); err == nil {
			return cmd, c
		}
		if time.Now().After(deadline) {
			t.Fatal("child never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrainAcrossProcess sends a real SIGTERM to a real lsdfd
// process while a streaming read is mid-flight: the stream must
// finish byte-perfect, new requests must be refused with the drain
// 503, and the process must exit 0.
func TestGracefulDrainAcrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd, c := startChild(t, t.TempDir(), "")
	ctx := context.Background()

	big := bytes.Repeat([]byte("sigterm-survivor "), 2<<20) // 32 MiB
	if _, err := c.PutObject(ctx, "/data/big.raw", big, ""); err != nil {
		t.Fatal(err)
	}

	rc, err := c.Get(ctx, "/data/big.raw")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 64*1024)
	if _, err := io.ReadFull(rc, head); err != nil {
		t.Fatal(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Another request, on another connection than the stream's, must
	// soon see the drain refusal (503) — never a success — while our
	// stream stays open.
	sawDrain := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		err := c.Health(ctx)
		if err == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if client.IsOverload(err) {
			sawDrain = true
		}
		break // 503 or (post-shutdown) connection refused: refusal either way
	}
	if !sawDrain {
		t.Error("never observed the 503 drain refusal after SIGTERM")
	}

	rest, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("in-flight stream broken by SIGTERM drain: %v", err)
	}
	if got := append(head, rest...); !bytes.Equal(got, big) {
		t.Fatalf("stream returned %d bytes, want %d", len(got), len(big))
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("child exit after drain: %v", err)
	}
}

// TestKill9NoAckedIngestLost extends E15's crash-consistency
// contract across the process and HTTP boundary: the parent ingests
// durable batches through the real client and counts only batches
// the gateway acknowledged over the wire, then SIGKILLs lsdfd
// mid-ingest. Recovery on the same WAL directory must surface every
// acknowledged dataset, and every acknowledged object's bytes must
// be intact on disk.
func TestKill9NoAckedIngestLost(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dataDir, walDir := t.TempDir(), t.TempDir()
	cmd, c := startChild(t, dataDir, walDir)
	ctx := context.Background()

	const batchSize = 8
	const killAfter = 12 // acked batches before the trigger
	type acked struct{ path, sha string }
	var ackedObjs []acked
	var ackedBatches atomic.Int64

	killed := make(chan struct{})
	go func() {
		for {
			if ackedBatches.Load() >= killAfter {
				cmd.Process.Kill() // SIGKILL: no drain, no flush, no goodbye
				close(killed)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

ingest:
	for b := 0; ; b++ {
		objs := make([]gateway.IngestObject, batchSize)
		for i := range objs {
			data := bytes.Repeat([]byte{byte(b), byte(i)}, 256+i)
			objs[i] = gateway.IngestObject{
				Path:    fmt.Sprintf("/data/gw/%04d/%02d.raw", b, i),
				Project: "gw-crash", Data: data, Tags: []string{"raw"},
			}
		}
		res, err := c.Ingest(ctx, objs)
		if err != nil {
			break ingest // the kill landed mid-request: this batch was never acked
		}
		if res.Registered != batchSize {
			t.Fatalf("batch %d partially registered before kill: %+v", b, res.Results)
		}
		// The HTTP 200 is the durability ack: group commit done.
		for _, r := range res.Results {
			ackedObjs = append(ackedObjs, acked{r.Path, r.SHA256})
		}
		ackedBatches.Add(1)
	}
	if n := ackedBatches.Load(); n < killAfter {
		t.Fatalf("only %d batches acked before the kill; window too small", n)
	}
	<-killed
	cmd.Wait() // expected to report the kill

	// The machine is back. Recover the metadata store on the same WAL
	// directory and audit against what the wire acknowledged.
	store, err := metadata.Open(metadata.Options{WALDir: walDir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer store.Close()

	lost, corrupt := 0, 0
	for _, a := range ackedObjs {
		ds, ok := store.ByPath(a.path)
		if !ok {
			lost++
			t.Errorf("acked-over-HTTP dataset lost: %s", a.path)
			continue
		}
		if ds.Checksum != a.sha || !ds.HasTag("raw") {
			corrupt++
			t.Errorf("acked dataset recovered with wrong state: %s", a.path)
		}
		// The bytes too: the object the gateway stored before the ack
		// must still hash to what the ack reported.
		rel := filepath.Join(dataDir, filepath.FromSlash(a.path[len("/data/"):]))
		data, err := os.ReadFile(rel)
		if err != nil {
			corrupt++
			t.Errorf("acked object bytes missing: %s: %v", a.path, err)
			continue
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != a.sha {
			corrupt++
			t.Errorf("acked object bytes corrupt: %s", a.path)
		}
	}

	// Nothing phantom: everything recovered was actually submitted.
	phantoms := 0
	for _, ds := range store.Find(metadata.Query{Project: "gw-crash"}) {
		var b, i int
		if _, err := fmt.Sscanf(ds.Path, "/data/gw/%04d/%02d.raw", &b, &i); err != nil ||
			int64(b) > ackedBatches.Load() || i >= batchSize {
			phantoms++
			t.Errorf("phantom dataset recovered: %s", ds.Path)
		}
	}
	t.Logf("kill -9 after %d acked batches (%d objects): lost=%d corrupt=%d phantoms=%d",
		ackedBatches.Load(), len(ackedObjs), lost, corrupt, phantoms)
}
