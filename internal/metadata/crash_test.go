package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metadata/durafs"
)

// The crash-consistency contract these tests enforce:
//
//  1. Acknowledged mutations survive: a Create/Tag/Delete that
//     returned without error is present (or absent, for Delete)
//     after recovery. No lost acknowledged datasets.
//  2. No phantoms: everything recovery presents was genuinely
//     submitted to the store — torn records and garbage never
//     materialize as data. A mutation that was submitted but never
//     acknowledged (in flight at the crash, or returned an error)
//     may legitimately land either way; what it must never do is
//     surface partially (a dataset without its create-time tags).
//  3. Recovery is total: Open either succeeds on the post-crash
//     bytes or fails with a typed error; it never panics and never
//     silently drops acknowledged state.

// crashWorkload drives one seeded run: concurrent batched ingest
// (CreateBatch with tags — the group-commit unit), placement/replica
// notes, and scattered deletes, against a store that will crash at a
// random injected I/O point. It returns what was acked and what was
// submitted.
type crashWorkload struct {
	mu           sync.Mutex
	ackedPresent map[string][]string // path -> create-time tags, acked and not deleted
	ackedAbsent  map[string]bool     // path -> delete acked
	submitted    map[string]bool     // every path ever attempted
}

func (w *crashWorkload) submit(paths ...string) {
	w.mu.Lock()
	for _, p := range paths {
		w.submitted[p] = true
	}
	w.mu.Unlock()
}

func (w *crashWorkload) ackCreate(path string, tags []string) {
	w.mu.Lock()
	w.ackedPresent[path] = tags
	w.mu.Unlock()
}

func (w *crashWorkload) ackDelete(path string) {
	w.mu.Lock()
	delete(w.ackedPresent, path)
	w.ackedAbsent[path] = true
	w.mu.Unlock()
}

// indeterminate drops every constraint on path: its latest
// presence-changing mutation was in flight at the crash, so either
// outcome is legal.
func (w *crashWorkload) indeterminate(path string) {
	w.mu.Lock()
	delete(w.ackedPresent, path)
	delete(w.ackedAbsent, path)
	w.mu.Unlock()
}

// compactionsCrossed returns how many times the store has cut its
// log: every cut is one segment number.
func compactionsCrossed(s *Store) int {
	s.wal.mu.Lock()
	defer s.wal.mu.Unlock()
	return s.wal.seg
}

// runCrashSeed executes one seed: ingest until the injected crash
// (or completion), reopen from the surviving bytes, and check the
// contract. Returns the recovery stats for aggregation and how many
// compactions the log had behind it when the run ended.
func runCrashSeed(t *testing.T, seed int64) (RecoveryStats, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mem := durafs.NewMem()
	fault := durafs.NewFault(mem, rand.New(rand.NewSource(seed^0x5eed)))

	s, err := Open(Options{
		Shards:        4,
		SnapshotEvery: 8 + rng.Intn(24),
		WALDir:        "/wal",
		FS:            fault,
	})
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	// Arm the crash point somewhere inside the workload's I/O span
	// (a run to completion is about crashSpan operations).
	fault.CrashAfterOps(int64(1 + rng.Intn(crashSpan)))

	w := &crashWorkload{
		ackedPresent: make(map[string][]string),
		ackedAbsent:  make(map[string]bool),
		submitted:    make(map[string]bool),
	}

	// Long enough that, with the amortised trigger, the log
	// compacts at least twice while the other goroutines keep
	// committing: the cut, the new segment's creation and the old
	// one's deletion all happen with commits in flight.
	const goroutines, batches, batchSize = 4, 16, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var created []Dataset
			for b := 0; b < batches; b++ {
				specs := make([]CreateSpec, batchSize)
				for i := range specs {
					path := fmt.Sprintf("/crash/%d/%d/%d", g, b, i)
					specs[i] = CreateSpec{
						Project: "p",
						Path:    path,
						Size:    1,
						Tags:    []string{"raw", fmt.Sprintf("g%d", g)},
					}
					w.submit(path)
				}
				for _, res := range s.CreateBatch(specs) {
					if res.Err == nil {
						w.ackCreate(res.Dataset.Path, res.Dataset.Tags)
						created = append(created, res.Dataset)
					}
				}
				// Placement/replica notes ride the same WALs.
				if len(created) > 0 {
					d := created[len(created)-1]
					placeRow(s, "/ddn"+d.Path, TierResident)
					s.AddReplica(d.Path, "gridka", testDigest(d.Path))
				}
				// Occasionally delete an earlier acked dataset.
				if b%3 == 2 && len(created) > 2 {
					victim := created[0]
					created = created[1:]
					if err := s.Delete(victim.ID); err == nil {
						w.ackDelete(victim.Path)
					} else {
						w.indeterminate(victim.Path)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	crossed := compactionsCrossed(s)

	// The "machine" is dead (or the workload completed). Recover from
	// exactly what the disk holds.
	if !fault.Crashed() {
		mem.Crash(nil) // treat run-to-completion as a clean power cut after final fsyncs
	}
	r, err := Open(Options{Shards: 4, WALDir: "/wal", FS: mem})
	if err != nil {
		t.Fatalf("seed %d: recovery failed: %v", seed, err)
	}
	defer r.Close()

	w.mu.Lock()
	defer w.mu.Unlock()
	for path, tags := range w.ackedPresent {
		got, ok := r.ByPath(path)
		if !ok {
			t.Fatalf("seed %d: LOST acknowledged dataset %s", seed, path)
		}
		if len(got.Tags) != len(tags) {
			t.Fatalf("seed %d: %s recovered with tags %v, acked %v", seed, path, got.Tags, tags)
		}
	}
	for path := range w.ackedAbsent {
		if _, ok := r.ByPath(path); ok {
			t.Fatalf("seed %d: acknowledged delete of %s did not survive", seed, path)
		}
	}
	for _, d := range r.Find(Query{}) {
		if !w.submitted[d.Path] {
			t.Fatalf("seed %d: PHANTOM dataset %s (%s) never submitted", seed, d.ID, d.Path)
		}
		if !d.HasTag("raw") {
			t.Fatalf("seed %d: %s recovered without its create-time tags: %v", seed, d.Path, d.Tags)
		}
	}
	return r.RecoveryStats(), crossed
}

// crashSpan is roughly the I/O operations one fault-free run of the
// property workload performs; crash points are drawn from it.
const crashSpan = 700

// TestCrashRecoveryProperty is the headline crash-injection property
// test: >= 100 seeds, each with a random crash point injected during
// sustained concurrent batched ingest. Runs under -race in CI.
func TestCrashRecoveryProperty(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	var agg RecoveryStats
	twice := 0 // seeds that ended with two compactions behind the log
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%03d", seed), func(t *testing.T) {
			st, crossed := runCrashSeed(t, int64(seed))
			if crossed >= 2 {
				twice++
			}
			agg.RecordsReplayed += st.RecordsReplayed
			agg.SnapshotsLoaded += st.SnapshotsLoaded
			agg.TornTails += st.TornTails
			agg.PathConflictsDropped += st.PathConflictsDropped
		})
	}
	// The sweep must actually exercise the interesting machinery.
	if agg.RecordsReplayed == 0 {
		t.Error("no seed replayed any WAL records")
	}
	if agg.SnapshotsLoaded == 0 {
		t.Error("no seed recovered through a snapshot")
	}
	if twice < seeds/4 {
		t.Errorf("only %d of %d seeds got the log past two compactions", twice, seeds)
	}
	t.Logf("aggregate: %d records replayed, %d snapshots loaded, %d torn tails, %d path conflicts, %d seeds past two compactions",
		agg.RecordsReplayed, agg.SnapshotsLoaded, agg.TornTails, agg.PathConflictsDropped, twice)
}

// TestCrashPointSweep is the exhaustive single-threaded matrix: a
// deterministic workload is first run fault-free to count its I/O
// operations, then re-run once per crash point across the whole
// span (sampled past a cap to bound runtime). Every single injected
// crash must recover cleanly with the full contract intact.
func TestCrashPointSweep(t *testing.T) {
	// Pass 1: count ops.
	probe := durafs.NewFault(durafs.NewMem(), nil)
	total := func() int64 {
		s, err := Open(Options{Shards: 2, SnapshotEvery: 6, WALDir: "/wal", FS: probe})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sweepWorkload(t, s, false)
		// Every I/O index of a compaction — segment create, dir sync,
		// cut commit, snapshot write, old-segment delete — is in the
		// span only if the workload compacts; twice, so that a cut from
		// a numbered segment is swept as well as the first one.
		if n := compactionsCrossed(s); n < 2 {
			t.Fatalf("sweep workload took the log through %d compactions, want >= 2", n)
		}
		return probe.Ops()
	}()
	if total < 50 {
		t.Fatalf("sweep workload too small: %d ops", total)
	}
	step := int64(1)
	if max := int64(400); total > max && testing.Short() {
		step = total/max + 1
	}
	for crashAt := int64(1); crashAt <= total; crashAt += step {
		mem := durafs.NewMem()
		fault := durafs.NewFault(mem, rand.New(rand.NewSource(crashAt)))
		s, err := Open(Options{Shards: 2, SnapshotEvery: 6, WALDir: "/wal", FS: fault})
		if err != nil {
			// Open fails only as a typed error, never a panic.
			continue
		}
		fault.CrashAfterOps(crashAt)
		acked := sweepWorkload(t, s, true)

		r, rerr := Open(Options{Shards: 2, WALDir: "/wal", FS: mem})
		if rerr != nil {
			t.Fatalf("crashAt=%d: recovery failed: %v", crashAt, rerr)
		}
		for path, wantPresent := range acked {
			_, ok := r.ByPath(path)
			if wantPresent && !ok {
				t.Fatalf("crashAt=%d: lost acknowledged %s", crashAt, path)
			}
			if !wantPresent && ok {
				t.Fatalf("crashAt=%d: acknowledged delete of %s lost", crashAt, path)
			}
		}
		r.Close()
	}
}

// sweepWorkload is the deterministic op mix for the crash sweep:
// creates, tags, a processing record, placement/replica notes and a
// delete. It returns the acked expectation map (path -> should be
// present); a path whose presence-changing op was in flight when the
// crash hit is removed from the map entirely — an unacknowledged
// create or delete may legally land either way. With tolerate set,
// WAL failures (the armed crash) stop the run silently.
func sweepWorkload(t *testing.T, s *Store, tolerate bool) map[string]bool {
	t.Helper()
	acked := make(map[string]bool)
	fatal := func(err error) {
		if !tolerate {
			t.Fatalf("fault-free workload errored: %v", err)
		}
	}
	for i := 0; i < 30; i++ {
		path := fmt.Sprintf("/sweep/%02d", i)
		d, err := s.Create("p", path, 1, "", nil)
		if err != nil {
			fatal(err) // in-flight create: no constraint on path
			return acked
		}
		acked[path] = true
		if i%2 == 0 {
			if err := s.Tag(d.ID, "even"); err != nil {
				fatal(err) // dataset stays acked; only the tag is in flight
				return acked
			}
		}
		if i%5 == 0 {
			if _, err := s.AddProcessing(d.ID, Processing{Tool: "t"}); err != nil {
				fatal(err)
				return acked
			}
		}
		placeRow(s, "/ddn"+path, TierResident)
		if i == 20 {
			if err := s.Delete(d.ID); err != nil {
				fatal(err)
				delete(acked, path) // in-flight delete: either outcome is legal
				return acked
			}
			acked[path] = false
		}
	}
	return acked
}

// TestInjectedFailureModesTyped is the torn-write / short-fsync
// matrix over the durafs seam: each injected failure mode must
// surface as a typed error on the mutation path (never silence), and
// a subsequent crash+reopen must recover every previously
// acknowledged dataset.
func TestInjectedFailureModesTyped(t *testing.T) {
	modes := []struct {
		name string
		arm  func(*durafs.Fault)
	}{
		{"short-fsync", func(f *durafs.Fault) { f.FailSyncs(1) }},
		{"torn-write", func(f *durafs.Fault) { f.TearNextWrite() }},
		{"short-fsync-burst", func(f *durafs.Fault) { f.FailSyncs(3) }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			mem := durafs.NewMem()
			fault := durafs.NewFault(mem, rand.New(rand.NewSource(1)))
			s, err := Open(Options{Shards: 1, WALDir: "/wal", FS: fault})
			if err != nil {
				t.Fatal(err)
			}
			// Phase 1: acked baseline.
			for i := 0; i < 5; i++ {
				if _, err := s.Create("p", fmt.Sprintf("/m/%d", i), 1, "", nil); err != nil {
					t.Fatal(err)
				}
			}
			// Phase 2: inject. The mutation must report a typed error.
			mode.arm(fault)
			_, err = s.Create("p", "/m/failed", 1, "", nil)
			if err == nil {
				t.Fatal("injected failure was silently swallowed")
			}
			if !errors.Is(err, ErrWALFailed) {
				t.Fatalf("err = %v, want ErrWALFailed wrapper", err)
			}
			// Phase 3: fail-stop — the store refuses more work.
			if _, err := s.Create("p", "/m/after", 1, "", nil); !errors.Is(err, ErrWALFailed) {
				t.Fatalf("store accepted mutation after WAL failure: %v", err)
			}
			// Phase 4: crash, recover, audit.
			mem.Crash(nil)
			r, err := Open(Options{Shards: 1, WALDir: "/wal", FS: mem})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer r.Close()
			for i := 0; i < 5; i++ {
				if _, ok := r.ByPath(fmt.Sprintf("/m/%d", i)); !ok {
					t.Fatalf("acked /m/%d lost after %s", i, mode.name)
				}
			}
			if _, ok := r.ByPath("/m/failed"); ok {
				t.Fatal("errored mutation recovered as if acknowledged")
			}
		})
	}
}
