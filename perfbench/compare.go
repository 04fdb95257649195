package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// record is one run in a result set: the line --record appends.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of the comparator.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a verdict other than
// unresolved needs.
const minPairs = 10

// verdict compares a metric's runs on the parent and on the change,
// paired by position (run i of one side with run i of the other).
//   - improved: the change is better in at least 9/10 of the pairs, ties
//     counting for neither, and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved: fewer than ten pairs, or the parent's interquartile
//     range exceeds bound × its median, unless every change run is
//     better than every parent run;
//   - worse: the change's median is worse than the parent's by more
//     than bound × the parent's median;
//   - no worse: otherwise.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	n := min(len(parent), len(change))
	if n < minPairs {
		return verdictUnresolved
	}
	parent, change = parent[:n], change[:n]
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	q1, pmed, q3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	gain := cmed - pmed
	if lowerBetter {
		gain = -gain
	}
	if 10*wins >= 9*n && gain > q3-q1 {
		return verdictImproved
	}
	if q3-q1 > bound*math.Abs(pmed) {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				if !better(c, p) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return verdictNoWorse
		}
		return verdictUnresolved
	}
	if -gain > bound*math.Abs(pmed) {
		return verdictWorse
	}
	return verdictNoWorse
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups one metric's values by workload, in file order.
func series(recs []record, trace int, metricName string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range recs {
		if r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metricName]; ok {
			out[r.Workload] = append(out[r.Workload], m.Value)
		}
	}
	return out
}

// compareMain prints a verdict per (end-to-end metric, workload) pair
// for two result sets recorded with --record, and fails when any pair
// is worse or a run of the change failed an output check.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	worse := 0
	for _, r := range change {
		if !r.Result.Correct {
			fmt.Printf("change run %s seed %d failed its output check (%d of %d failed)\n",
				r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
			worse++
		}
	}
	fmt.Printf("%-12s %-16s %5s %14s %14s %10s  %s\n", "workload", "metric", "pairs", "parent p50", "change p50", "diff", "verdict")
	for _, m := range spec.EndToEnd {
		ps, cs := series(parent, 0, m.Name), series(change, 0, m.Name)
		wls := make([]string, 0, len(ps))
		for w := range ps {
			wls = append(wls, w)
		}
		sort.Strings(wls)
		for _, w := range wls {
			p, c := ps[w], cs[w]
			v := verdict(p, c, m.Better == "lower", m.Bound)
			if v == verdictWorse {
				worse++
			}
			_, pm, _ := quartiles(p)
			_, cm, _ := quartiles(c)
			fmt.Printf("%-12s %-16s %5d %14.4f %14.4f %+9.1f%%  %s\n", w, m.Name, min(len(p), len(c)), pm, cm, 100*(cm-pm)/pm, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d regressions or failed runs", worse)
	}
	return nil
}

// overheadMain prints, per workload, the traced run's end-to-end
// medians against the untraced run's: the cost of tracing.
func overheadMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench overhead untraced.jsonl traced.jsonl")
	}
	untraced, err := readRecords(args[0])
	if err != nil {
		return err
	}
	traced, err := readRecords(args[1])
	if err != nil {
		return err
	}
	for _, n := range []string{"setup_s", "p50_ms", "tail_ms", "cpu_us_per_doc"} {
		us, ts := series(untraced, 0, n), series(traced, 1, "trace."+n)
		wls := make([]string, 0, len(us))
		for w := range us {
			wls = append(wls, w)
		}
		sort.Strings(wls)
		for _, w := range wls {
			if len(ts[w]) == 0 {
				continue
			}
			_, u, _ := quartiles(us[w])
			_, t, _ := quartiles(ts[w])
			fmt.Printf("%-12s %-16s untraced %12.4f traced %12.4f overhead %+7.1f%%\n", w, n, u, t, 100*(t-u)/u)
		}
	}
	return nil
}
