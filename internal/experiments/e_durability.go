package experiments

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/adal"
	"repro/internal/metadata"
)

// E15 — durable metadata under kill -9 (PR 6).
//
// The paper's metadata services (slide 10's project DB and the ADAL
// catalog) are the part of the LSDF that must never lose an
// acknowledged registration: the bits on tape are unfindable without
// them. This experiment proves the reproduction's WAL+snapshot
// durability plane against the real failure, not a simulation: a
// child process ingests datasets in durable batches — printing an ACK
// only after the batch's group commit, which its placement rows and
// replica notes ride, is fsynced — until the parent SIGKILLs it
// mid-ingest. The parent then reopens the store on the same directory
// and audits the crash-consistency contract: every acknowledged dataset
// recovered with tags, placement and replica state; nothing recovered
// that was never submitted.

const (
	e15ChildEnv = "LSDF_E15_CHILD"
	e15DirEnv   = "LSDF_E15_DIR"
	e15Shards   = 8
	e15Batch    = 16
	e15Target   = 25 // ACKed batches before the parent pulls the trigger
)

// E15ChildMain is the ingest child's entry point, called at startup
// by cmd/lsdf-bench and the experiments test binary. When the E15
// child environment is present it never returns: it ingests durable
// batches and prints "ACK <n>" lines until SIGKILLed (or exits 2 on
// any store error). Otherwise it returns false immediately.
func E15ChildMain() bool {
	if os.Getenv(e15ChildEnv) == "" {
		return false
	}
	s, err := metadata.Open(metadata.Options{
		Shards:        e15Shards,
		SnapshotEvery: 64,
		WALDir:        os.Getenv(e15DirEnv),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e15 child: open: %v\n", err)
		os.Exit(2)
	}
	digest := adal.Digest{Size: 1, Sum: "e15"} // a stand-in: no byte is read back
	for b := 0; ; b++ {
		specs := make([]metadata.CreateSpec, e15Batch)
		for i := range specs {
			specs[i] = metadata.CreateSpec{
				Project: "e15",
				Path:    e15Path(b, i),
				Size:    1,
				Tags:    []string{"raw", "e15"},
			}
			// As a store does: the tier's row and the home replica's
			// note are staged when the bytes land, and the batch's
			// registration makes them durable with it (or fails with
			// the log that refused them).
			s.Place("/ddn"+specs[i].Path, &metadata.Placement{Digest: digest})
			s.AddReplica(specs[i].Path, "gridka", digest)
		}
		for _, res := range s.CreateBatch(specs) {
			if res.Err != nil {
				fmt.Fprintf(os.Stderr, "e15 child: create: %v\n", res.Err)
				os.Exit(2)
			}
		}
		if n := s.WALErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "e15 child: %d WAL errors\n", n)
			os.Exit(2)
		}
		// Everything in batch b is durable on disk; only now may the
		// outside world learn it was accepted.
		fmt.Printf("ACK %d\n", b)
	}
}

func e15Path(batch, i int) string { return fmt.Sprintf("/e15/%04d/%02d", batch, i) }

// E15DurableMetadata runs the kill -9 experiment.
func E15DurableMetadata() (*Table, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "lsdf-e15-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), e15ChildEnv+"=1", e15DirEnv+"="+dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	// Count ACKs; once the target is reached, SIGKILL mid-ingest and
	// keep draining — ACKs printed between the decision and the kill
	// landing are acknowledged too.
	acked := 0
	killed := false
	deadline := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		n, convErr := strconv.Atoi(strings.TrimPrefix(sc.Text(), "ACK "))
		if convErr != nil || n != acked {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("e15: child spoke out of turn: %q (want ACK %d)", sc.Text(), acked)
		}
		acked++
		if acked >= e15Target && !killed {
			killed = true
			if err := cmd.Process.Kill(); err != nil { // SIGKILL: no defer, no flush, no goodbye
				cmd.Wait()
				return nil, fmt.Errorf("e15: kill: %w", err)
			}
		}
	}
	deadline.Stop()
	cmd.Wait() // expected to report the kill; the audit below is the verdict
	if !killed {
		return nil, fmt.Errorf("e15: child exited on its own after %d acks", acked)
	}

	// The machine is back up. Recover and audit.
	start := time.Now()
	s, err := metadata.Open(metadata.Options{Shards: e15Shards, WALDir: dir})
	if err != nil {
		return nil, fmt.Errorf("e15: recovery: %w", err)
	}
	defer s.Close()
	recoveryTime := time.Since(start)
	stats := s.RecoveryStats()

	lost, badState := 0, 0
	placed := s.Placements("/ddn")
	for b := 0; b < acked; b++ {
		for i := 0; i < e15Batch; i++ {
			path := e15Path(b, i)
			d, ok := s.ByPath(path)
			switch {
			case !ok:
				lost++
			case !d.HasTag("raw") || !d.HasTag("e15"):
				badState++
			default:
				if p, ok := placed[path]; !ok || p.State != metadata.TierResident {
					badState++
				} else if st, _ := s.Replica(path, "gridka"); st != metadata.ReplicaValid {
					badState++
				}
			}
		}
	}
	phantoms := 0
	all := s.Find(metadata.Query{})
	for _, d := range all {
		var b, i int
		if _, err := fmt.Sscanf(d.Path, "/e15/%04d/%02d", &b, &i); err != nil || b > acked || i >= e15Batch {
			phantoms++
		}
	}

	tbl := &Table{
		ID:         "E15",
		Title:      "durable metadata: kill -9 during sustained batched ingest",
		PaperClaim: "the metadata services must survive failures without losing registered datasets (slide 10: central project DB + ADAL catalog)",
		Columns:    []string{"metric", "value"},
		Rows: [][]string{
			{"batches acknowledged before SIGKILL", fmt.Sprint(acked)},
			{"datasets acknowledged", fmt.Sprint(acked * e15Batch)},
			{"datasets recovered", fmt.Sprint(len(all))},
			{"lost acknowledged datasets", fmt.Sprint(lost)},
			{"acked with wrong tags/placement/replicas", fmt.Sprint(badState)},
			{"phantom datasets", fmt.Sprint(phantoms)},
			{"snapshots loaded on recovery", fmt.Sprint(stats.SnapshotsLoaded)},
			{"WAL records replayed", fmt.Sprint(stats.RecordsReplayed)},
			{"torn WAL tails truncated", fmt.Sprint(stats.TornTails)},
			{"recovery time", recoveryTime.Round(time.Millisecond).String()},
		},
		Notes: fmt.Sprintf("child ACKs only after the batch's group commit, which its placement rows and replica notes ride; "+
			"recovered set may include at most one in-flight batch (got %d datasets beyond the acked %d)",
			len(all)-(acked*e15Batch-lost), acked*e15Batch),
	}
	if lost > 0 || phantoms > 0 || badState > 0 {
		return tbl, fmt.Errorf("e15: contract violated: %d lost, %d phantoms, %d bad state", lost, phantoms, badState)
	}
	return tbl, nil
}
