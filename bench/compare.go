package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// A comparison has one row per (end-to-end metric, workload): both
// values, the ratio new/old with old as its base, the change in the
// metric's worse direction, the wider of the two runs' round-to-round
// spreads (drift removed, see noise), and a verdict:
//
//	ok          no worse than the bound, and the rounds are steady enough to say so
//	worse       worse by more than the bound, and by more than the spread
//	unresolved  the round-to-round spread is wider than the bound (or than
//	            the change): the runs cannot tell
//
// fail_ratio and recovered_ratio have no tolerance: any failed op more,
// any acked dataset lost, is worse.

type compareRow struct {
	Workload, Metric string
	Old, New         float64
	Unit             string
	Worsening        float64 // share of Old, positive = worse
	Spread, Bound    float64
	Verdict          string
}

func loadLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func failRatio(r *result) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func compareLedgers(old, cur *ledger) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		o, n := old.workload(w.Name), cur.workload(w.Name)
		if o == nil || n == nil {
			rows = append(rows, compareRow{Workload: w.Name, Metric: "(workload)", Verdict: "worse"})
			continue
		}
		for _, m := range endToEnd {
			ov, nv := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			row := compareRow{Workload: w.Name, Metric: m.Name, Old: ov.Value, New: nv.Value, Unit: m.Unit, Bound: m.Bound}
			row.Worsening = ratio(nv.Value-ov.Value, ov.Value)
			if m.Better == "higher" {
				row.Worsening = -row.Worsening
			}
			row.Spread = max(valueNoise(m.Name, ov), valueNoise(m.Name, nv))
			switch {
			case row.Worsening > m.Bound && row.Worsening > row.Spread:
				row.Verdict = "worse"
			case row.Worsening > m.Bound || row.Spread > m.Bound:
				row.Verdict = "unresolved"
			default:
				row.Verdict = "ok"
			}
			rows = append(rows, row)
		}
		fr := compareRow{Workload: w.Name, Metric: "fail_ratio", Old: failRatio(o), New: failRatio(n), Unit: "ratio", Verdict: "ok"}
		if fr.New > fr.Old || !n.Correct {
			fr.Verdict = "worse"
		}
		rows = append(rows, fr)
		if ov, ok := o.PerLayer["metadata.recovered_ratio"]; ok {
			nv := n.PerLayer["metadata.recovered_ratio"]
			rr := compareRow{Workload: w.Name, Metric: "recovered_ratio", Old: ov.Value, New: nv.Value, Unit: "ratio", Verdict: "ok"}
			if nv.Value < ov.Value {
				rr.Verdict = "worse"
			}
			rows = append(rows, rr)
		}
	}
	return rows
}

// printRows prints the table and reports whether any row is worse.
func printRows(w io.Writer, rows []compareRow) (worse bool) {
	fmt.Fprintf(w, "%-15s %-16s %14s %14s %-6s %16s %9s %7s %7s  %s\n",
		"workload", "metric", "old", "new", "unit", "new/old (base)", "worsening", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-16s %14.4f %14.4f %-6s %6.3f (%9.4g) %+8.1f%% %6.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, ratio(r.New, r.Old), r.Old,
			100*r.Worsening, 100*r.Spread, 100*r.Bound, r.Verdict)
		worse = worse || r.Verdict == "worse"
	}
	return worse
}

func compareFiles(stdout, stderr io.Writer, oldPath, newPath string) int {
	old, err := loadLedger(oldPath)
	if err == nil {
		var cur *ledger
		if cur, err = loadLedger(newPath); err == nil {
			fmt.Fprintf(stdout, "old: %s (%s, %s, %d procs)   new: %s (%s, %s, %d procs)\n",
				old.Commit, old.GoVersion, old.CPUModel, old.GOMAXPROCS, cur.Commit, cur.GoVersion, cur.CPUModel, cur.GOMAXPROCS)
			if printRows(stdout, compareLedgers(old, cur)) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// runSelfcheck runs the whole benchmark twice on the same tree and
// prints the observed difference per metric, so the bounds can be
// tightened later.
func runSelfcheck(stdout, stderr io.Writer, seed int64, seconds float64) int {
	var runs [2]*ledger
	for i := range runs {
		led, err := runAll(stdout, stderr, seed, seconds, fmt.Sprintf("-self%d", i))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		led.Commit = fmt.Sprintf("selfcheck-%d", i+1)
		runs[i] = led
	}
	fmt.Fprintln(stdout, "\nselfcheck, second run against first:")
	printRows(stdout, compareLedgers(runs[0], runs[1]))
	if bad := selfcheckFailures(stdout, runs[0], runs[1]); bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: FAIL, %d findings\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: ok")
	return 0
}

// selfcheckFailures counts what two runs of the same tree may not
// show: a failed op or a lost dataset in either run, and an end-to-end
// metric that differs by more than its bound in either order.
func selfcheckFailures(w io.Writer, a, b *ledger) (bad int) {
	for _, l := range []*ledger{a, b} {
		for _, r := range l.Workloads {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "selfcheck: %s %s: %d of %d ops failed, correct=%v\n", l.Commit, r.Workload, r.Failed, r.Attempted, r.Correct)
				bad++
			}
		}
	}
	rows, back := compareLedgers(a, b), compareLedgers(b, a)
	for i, r := range rows {
		if r.Metric == "(workload)" || r.Bound > 0 && max(r.Worsening, back[i].Worsening) > r.Bound {
			fmt.Fprintf(w, "selfcheck: %s %s differs by %.1f%%, bound %.1f%%\n", r.Workload, r.Metric, 100*max(r.Worsening, back[i].Worsening), 100*r.Bound)
			bad++
		}
	}
	return bad
}
