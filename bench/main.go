// Command bench is the facility benchmark: five workloads over the
// read, ingest and compute paths of a real facility behind its gateway
// on loopback TCP, end-to-end metrics from untraced rounds, and a
// traced pass that times each layer's public entry points from
// outside. See README.md in this directory.
//
//	go run ./bench                              every workload, ledger to bench/out/
//	go run ./bench -workload read-hot           one workload
//	go run ./bench -compare old.json new.json   verdict per (metric, workload)
//	go run ./bench -selfcheck                   two full runs must agree within the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir holds everything a run leaves behind: the ledger, the traces,
// scratch files and, through run.sh, the build. It is relative to the
// root of the checkout, where the benchmark is run from.
const outDir = "bench/out"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: every workload, each in its own child process)")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload, split into 5 rounds")
	trace := fs.Int("trace", 1, "1 = also run the traced pass and report the per-layer metrics")
	resultPath := fs.String("result", "", "also write the workload's full result to this file (used by the parent process)")
	compare := fs.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run everything twice and fail if the runs disagree by more than the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two ledger files"))
		}
		return compareFiles(stdout, stderr, fs.Arg(0), fs.Arg(1))
	case *selfcheck:
		return runSelfcheck(stdout, stderr, *seed, *seconds)
	case *workload != "":
		res, err := runWorkload(runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: outDir, Size: fullSize})
		if err != nil {
			return fail(err)
		}
		if *resultPath != "" {
			if err := writeJSON(*resultPath, res); err != nil {
				return fail(err)
			}
		}
		printResult(stdout, res)
		fmt.Fprintln(stdout, resultLine(res, *trace != 0))
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed or recovery was incomplete\n", res.Workload, res.Failed, res.Attempted)
		}
		return 0
	}
	led, err := runAll(stdout, stderr, *seed, *seconds, "")
	if err != nil {
		return fail(err)
	}
	led.Commit = gitCommit()
	path := filepath.Join(outDir, "BENCH_"+led.Commit+".json")
	if err := writeJSON(path, led); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "ledger:", path)
	for _, w := range led.Workloads {
		if !w.Correct {
			return fail(fmt.Errorf("%s: incorrect results", w.Workload))
		}
	}
	return 0
}

// ledger is one full run of the benchmark, stamped with where it ran.
type ledger struct {
	Commit      string    `json:"commit"`
	GoVersion   string    `json:"go_version"`
	CPUModel    string    `json:"cpu_model"`
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Seed        int64     `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Rounds      int       `json:"rounds"`
	FlushPolicy string    `json:"flush_policy"`
	Claim       *string   `json:"claim"` // the change that adds the benchmark claims no gain
	Workloads   []*result `json:"workloads"`
}

func (l *ledger) workload(name string) *result {
	for _, w := range l.Workloads {
		if w.Workload == name {
			return w
		}
	}
	return nil
}

// runAll runs every workload in its own re-exec'd child, so peak RSS
// and CPU seconds are per workload, and gathers the results.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, tag string) (*ledger, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	led := &ledger{
		GoVersion: runtime.Version(), CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Rounds: rounds, FlushPolicy: flushPolicy,
	}
	for _, w := range workloads {
		resPath := filepath.Join(outDir, "tmp", fmt.Sprintf("result-%s%s-%d.json", w.Name, tag, os.Getpid()))
		if err := os.MkdirAll(filepath.Dir(resPath), 0o755); err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "1", "-result", resPath)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		var res result
		data, err := os.ReadFile(resPath)
		if err == nil {
			err = json.Unmarshal(data, &res)
		}
		_ = os.Remove(resPath)
		if err != nil {
			return nil, fmt.Errorf("%s: reading result: %w", w.Name, err)
		}
		led.Workloads = append(led.Workloads, &res)
	}
	return led, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d  %gs in %d rounds  clients=%d  ops_digest=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Rounds, res.Clients, res.OpsDigest)
	fmt.Fprintf(w, "   attempted=%d failed=%d latency_samples=%d setups_timed=%d correct=%v\n",
		res.Attempted, res.Failed, res.Samples, res.Setups, res.Correct)
	for _, m := range endToEnd {
		v := res.EndToEnd[m.Name]
		fmt.Fprintf(w, "   %-40s %14.4f %-6s round noise %.3f\n", m.Name, v.Value, v.Unit, valueNoise(m.Name, v))
	}
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "   %-40s %14.4f %-6s -> %s\n", m.Name, v.Value, v.Unit, m.Moves)
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "   note:", n)
	}
}

// resultLine is the driver's line: the end-to-end metrics without the
// traced pass, the per-layer metrics with it. A per-layer metric that
// does not apply to the workload reads 0 there; the ledger leaves it
// out instead.
func resultLine(res *result, traced bool) string {
	metrics := map[string]metricValue{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = metricValue{Value: res.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{Value: res.EndToEnd[m.Name].Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}
