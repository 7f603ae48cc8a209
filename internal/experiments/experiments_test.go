package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets this test binary double as E15's ingest child: when
// re-executed with the E15 environment set, E15ChildMain takes over
// and never returns (the parent SIGKILLs it mid-ingest).
func TestMain(m *testing.M) {
	E15ChildMain()
	os.Exit(m.Run())
}

// TestAllExperimentsRun executes the full registry; every experiment
// must produce a well-formed table.
func TestAllExperimentsRun(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tbl, err := r.Run()
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if tbl.ID != r.ID {
				t.Fatalf("table ID %q, want %q", tbl.ID, r.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Columns) {
					t.Fatalf("row width %d vs %d columns: %v", len(row), len(tbl.Columns), row)
				}
			}
			if !strings.Contains(tbl.String(), tbl.PaperClaim) {
				t.Fatal("rendering lost the paper claim")
			}
		})
	}
}

func TestE1SustainsPaperRate(t *testing.T) {
	tbl, err := E1IngestHTM()
	if err != nil {
		t.Fatal(err)
	}
	// DES row: ~500k objects/day, ~2 TB.
	des := tbl.Rows[0]
	objs, _ := strconv.Atoi(strings.TrimSuffix(des[1], "/day"))
	if objs < 490_000 || objs > 510_000 {
		t.Fatalf("objects/day = %d, want ~500k", objs)
	}
	if des[4] != "0" {
		t.Fatalf("rejected = %s", des[4])
	}
	if !strings.HasPrefix(des[2], "2.00TB") && !strings.HasPrefix(des[2], "1.99TB") {
		t.Fatalf("volume = %s, want ~2TB", des[2])
	}
}

func TestE5MatchesPaperFifteenDays(t *testing.T) {
	tbl, err := E5Transfer()
	if err != nil {
		t.Fatal(err)
	}
	ideal := parseDays(t, tbl.Rows[0][1])
	realistic := parseDays(t, tbl.Rows[1][1])
	shared := parseDays(t, tbl.Rows[2][1])
	if ideal < 9.0 || ideal > 9.5 {
		t.Fatalf("ideal = %.1f days", ideal)
	}
	if realistic < 14 || realistic > 16 {
		t.Fatalf("realistic = %.1f days, want the paper's ~15", realistic)
	}
	if shared < 3.5*ideal {
		t.Fatalf("shared = %.1f days, should be ~4x ideal", shared)
	}
}

func parseDays(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, " days"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestE8ProjectsTwentyMinutes(t *testing.T) {
	tbl, err := E8Visualization()
	if err != nil {
		t.Fatal(err)
	}
	var projected string
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "60-node model") {
			projected = row[1]
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(projected, " min"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", projected, err)
	}
	if v < 18 || v > 22 {
		t.Fatalf("projected = %.1f min, want ~20 (paper)", v)
	}
}

func TestE11Reaches6PB(t *testing.T) {
	tbl, err := E11Growth()
	if err != nil {
		t.Fatal(err)
	}
	saw6PBin2012 := false
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "2012") && strings.HasPrefix(row[1], "6.00PB") {
			saw6PBin2012 = true
		}
	}
	if !saw6PBin2012 {
		t.Fatalf("no 6 PB installed during 2012: %v", tbl.Rows)
	}
}

func TestE12CatchesCorruption(t *testing.T) {
	tbl, err := E12Rules()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[0] == "tampered dataset flagged corrupt" && row[1] != "yes" {
			t.Fatalf("corruption not caught: %v", tbl.Rows)
		}
	}
}

func TestE14ZeroFailedReadsAndConvergence(t *testing.T) {
	tbl, err := E14MultiSiteReplication()
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string) string {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == name {
				return r[1]
			}
		}
		t.Fatalf("row %q missing: %v", name, tbl.Rows)
		return ""
	}
	if got := row("failed reads / short reads"); got != "0 / 0" {
		t.Fatalf("reads during outage failed: %s", got)
	}
	if got := row("paths at >= 2 valid after revive"); got != "72 / 72" {
		t.Fatalf("catalog did not converge: %s", got)
	}
	reads := row("reads during site outage")
	if n, err := strconv.Atoi(reads); err != nil || n == 0 {
		t.Fatalf("no reads exercised the outage window: %q", reads)
	}
}

// TestE16WANCollapseNoStaleReads pins the read-cache acceptance bar:
// >= 10x WAN byte reduction on the zipf stream and zero failed or
// stale reads across the mid-run site kill/revive in both phases.
// The steady-state p99 ratio is reported by the experiment, not
// asserted here: speed is the benchmark's job (bench/ ledger).
func TestE16WANCollapseNoStaleReads(t *testing.T) {
	tbl, err := E16HotSetReadCache()
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string) string {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == name {
				return r[1]
			}
		}
		t.Fatalf("row %q missing: %v", name, tbl.Rows)
		return ""
	}
	reduction, err := strconv.ParseFloat(strings.TrimSuffix(row("WAN reduction"), "x"), 64)
	if err != nil || reduction < 10 {
		t.Errorf("WAN reduction = %s, want >= 10x", row("WAN reduction"))
	}
	if got := row("failed reads (direct/cached)"); got != "0 / 0" {
		t.Errorf("failed reads = %s, want 0 / 0", got)
	}
	if got := row("content mismatches (direct/cached)"); got != "0 / 0" {
		t.Errorf("stale reads served: %s", got)
	}
	if dedups, _ := strconv.Atoi(row("singleflight dedups (16-way cold burst)")); dedups == 0 {
		t.Error("cold burst produced no singleflight dedups")
	}
	if got := row("remove leaves nothing servable"); got != "true" {
		t.Errorf("remove invalidation incomplete: %s", got)
	}
	if got := row("reads during site outage (direct/cached)"); got != "600 / 600" {
		t.Errorf("outage window = %s, want 600 / 600", got)
	}
}

// TestE15ZeroLostAcked runs the real kill -9 experiment and pins the
// crash-consistency contract: the child is SIGKILLed during
// sustained batched ingest, and recovery must surface every
// acknowledged dataset (with tags, placement and replica state) and
// nothing that was never submitted.
func TestE15ZeroLostAcked(t *testing.T) {
	tbl, err := E15DurableMetadata()
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string) string {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == name {
				return r[1]
			}
		}
		t.Fatalf("row %q missing: %v", name, tbl.Rows)
		return ""
	}
	for _, metric := range []string{
		"lost acknowledged datasets",
		"phantom datasets",
		"acked with wrong tags/placement/replicas",
	} {
		if got := row(metric); got != "0" {
			t.Errorf("%s = %s, want 0", metric, got)
		}
	}
	ackedBatches, _ := strconv.Atoi(row("batches acknowledged before SIGKILL"))
	if ackedBatches < 25 {
		t.Errorf("only %d batches acked before the kill; the window was too small to mean anything", ackedBatches)
	}
	acked, _ := strconv.Atoi(row("datasets acknowledged"))
	recovered, _ := strconv.Atoi(row("datasets recovered"))
	if recovered < acked {
		t.Errorf("recovered %d < acknowledged %d", recovered, acked)
	}
	replayed, _ := strconv.Atoi(row("WAL records replayed"))
	snaps, _ := strconv.Atoi(row("snapshots loaded on recovery"))
	if replayed == 0 && snaps == 0 {
		t.Error("recovery touched neither snapshots nor WAL records — the experiment exercised nothing")
	}
}

// TestE17GatewayAcceptance pins the front-door acceptance bar: zero
// failed authorized requests at every admission setting, tenant-fair
// 429s under deliberate overload (the hog is throttled, the quiet
// neighbor completes everything) and admission control actually
// exercised at the strict setting. The HTTP-vs-in-process p99 ratio
// and the quiet neighbor's p99 are reported, not asserted (bench/
// ledger: client.http.self_us).
func TestE17GatewayAcceptance(t *testing.T) {
	tbl, err := E17GatewayLoad()
	if err != nil {
		t.Fatal(err)
	}
	row := func(prefix string) []string {
		t.Helper()
		for _, r := range tbl.Rows {
			if strings.HasPrefix(r[0], prefix) {
				return r
			}
		}
		t.Fatalf("row %q missing: %v", prefix, tbl.Rows)
		return nil
	}
	// failed is the last column; ops is column 1.
	for _, phase := range []string{"probe in-process", "probe over HTTP", "fleet strict", "fleet default", "fleet open"} {
		r := row(phase)
		if r[7] != "0" {
			t.Errorf("%s: %s failed requests, want 0", phase, r[7])
		}
	}
	for _, phase := range []string{"fleet strict", "fleet default", "fleet open"} {
		if r := row(phase); r[1] != "8000" {
			t.Errorf("%s: completed %s ops, want 8000", phase, r[1])
		}
	}
	if r := row("fleet strict"); r[6] == "0" {
		t.Error("strict admission setting rejected nothing; overload was not exercised")
	}
	hog, quiet := row("fairness: hog"), row("fairness: quiet")
	if hog[5] == "0" {
		t.Error("hog tenant was never throttled")
	}
	if quiet[7] != "0" || quiet[5] != "0" {
		t.Errorf("quiet neighbor suffered for the hog: failed=%s throttled=%s", quiet[7], quiet[5])
	}
}

// TestE19ObservabilityAcceptance pins the observability bar: traced
// hot reads account for >= 95% of server-side request wall time, one
// front-door scrape is fully parseable and shows counter families
// from all six subsystems (with the workload actually visible in
// them) and the traced distributed job reaches the worker runtime.
// The instrument set's overhead on a hot cached read is reported, not
// asserted (bench/ ledger: trace.overhead_ratio).
func TestE19ObservabilityAcceptance(t *testing.T) {
	tbl, err := E19Observability()
	if err != nil {
		t.Fatal(err)
	}
	row := func(name string) string {
		t.Helper()
		for _, r := range tbl.Rows {
			if r[0] == name {
				return r[1]
			}
		}
		t.Fatalf("row %q missing: %v", name, tbl.Rows)
		return ""
	}
	cov, err := strconv.ParseFloat(strings.TrimSuffix(row("span coverage of request wall (median of 24 hot reads)"), "%"), 64)
	if err != nil || cov < 95 {
		t.Errorf("median span coverage = %s, want >= 95%%", row("span coverage of request wall (median of 24 hot reads)"))
	}
	if got := row("exposition lines failing to parse"); got != "0" {
		t.Errorf("%s exposition lines failed to parse", got)
	}
	if got := row("subsystem prefixes present"); got != "6 / 6" {
		t.Errorf("subsystem prefixes = %s, want 6 / 6", got)
	}
	if got := row("workload-driven counters still zero"); got != "none" {
		t.Errorf("counters the workload should have moved are zero: %s", got)
	}
	for _, want := range []string{"gw", "master", "mr"} {
		if !strings.Contains(row("layers in the traced distributed job"), want) {
			t.Errorf("job trace layers = %s, missing %q", row("layers in the traced distributed job"), want)
		}
	}
	if !strings.Contains(row("layers in a traced read"), "cache") {
		t.Errorf("read trace layers = %s, missing the cache", row("layers in a traced read"))
	}
}

// TestE18DistributedAcceptance pins the distributed-compute bar: both
// adversity jobs byte-identical to the single-process engine with two
// workers killed and one straggling, and speculative copies bounded
// (the experiment errors internally otherwise). The scale-out speed-up
// is reported, not asserted.
func TestE18DistributedAcceptance(t *testing.T) {
	tbl, err := E18DistributedCompute()
	if err != nil {
		t.Fatal(err)
	}
	adversityJobs, fleetRows := 0, 0
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[0], "adversity:") && strings.Contains(row[2], "byte-identical"):
			adversityJobs++
		case strings.HasPrefix(row[0], "adversity: worker fleet"):
			fleetRows++
			if !strings.HasPrefix(row[1], "6 live of 8") {
				t.Errorf("fleet row = %q, want 6 live of 8", row[1])
			}
		}
	}
	if adversityJobs != 2 {
		t.Errorf("%d byte-identical adversity jobs, want 2", adversityJobs)
	}
	if fleetRows != 1 {
		t.Error("missing worker-fleet row")
	}
}
