package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"sort"

	"remapd/bench"
)

// ledger is a file of benchmark runs: what -out appends to and -compare
// reads. Spread summarises the untraced runs of each workload, metric by
// metric, as the run-to-run evidence for the bounds in BENCHMARK.json.
type ledger struct {
	Machine string                       `json:"machine"`
	Runs    []ledgerRun                  `json:"runs"`
	Spread  map[string]map[string]spread `json:"spread"`
}

type ledgerRun struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Overhead map[string]float64 `json:"trace_overhead,omitempty"`
	Result   bench.Result       `json:"result"`
}

// spread is the median and quartiles of one metric over a set of runs;
// IQRRatio is the distance between the quartiles as a share of the median.
type spread struct {
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	IQRRatio float64 `json:"iqr_ratio"`
}

func spreadOf(vs []float64) spread {
	s := spread{N: len(vs), Median: bench.Quantile(vs, 0.5), Q1: bench.Quantile(vs, 0.25), Q3: bench.Quantile(vs, 0.75)}
	if s.Median != 0 {
		s.IQRRatio = math.Abs((s.Q3 - s.Q1) / s.Median)
	}
	return s
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	return &l, nil
}

// appendLedger adds runs to the ledger at path (creating it) and
// recomputes its spreads.
func appendLedger(path string, runs []ledgerRun) error {
	l, err := readLedger(path)
	if errors.Is(err, os.ErrNotExist) {
		l, err = &ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Machine = fmt.Sprintf("%d CPUs, %s/%s, %s", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	l.Runs = append(l.Runs, runs...)
	l.Spread = map[string]map[string]spread{}
	for w, metrics := range untracedValues(l) {
		l.Spread[w] = map[string]spread{}
		for name, vs := range metrics {
			l.Spread[w][name] = spreadOf(vs)
		}
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// untracedValues groups the untraced runs' metric values by workload and
// metric.
func untracedValues(l *ledger) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range l.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// boundSpec is one end-to-end metric of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// minCompareRuns is how many untraced runs per workload each side of a
// comparison needs.
const minCompareRuns = 5

// compare prints, for every (workload, end-to-end metric), each side's
// median and quartiles and a verdict under the metric's bound:
//
//   - unresolved: either side's quartile spread is wider than the bound,
//     unless every run of B reads better than every run of A (improved);
//   - regressed: B's median is worse than A's by more than the bound;
//   - improved: B's median is better than A's by more than the bound;
//   - ok: otherwise.
//
// It returns 1 if any metric regressed.
func compare(w io.Writer, pathA, pathB, benchmarkPath string) int {
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		log.Printf("remapd-bench: -compare reads the bounds from %s: %v", benchmarkPath, err)
		return 2
	}
	var spec struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		log.Printf("remapd-bench: %s: %v", benchmarkPath, err)
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, p := range []string{pathA, pathB} {
		l, err := readLedger(p)
		if err != nil {
			log.Printf("remapd-bench: %v", err)
			return 2
		}
		sides[i] = untracedValues(l)
	}
	var workloads []string
	for name := range sides[0] {
		if sides[1][name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		log.Print("remapd-bench: the ledgers share no workload")
		return 2
	}
	regressed := false
	fmt.Fprintf(w, "%-12s %-15s %12s %12s %12s   %12s %12s %12s  %7s %6s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, b := range spec.EndToEnd {
			a, bv := sides[0][wl][b.Name], sides[1][wl][b.Name]
			if len(a) < minCompareRuns || len(bv) < minCompareRuns {
				log.Printf("remapd-bench: %s %s: %d and %d runs; -compare needs at least %d untraced runs on each side",
					wl, b.Name, len(a), len(bv), minCompareRuns)
				return 2
			}
			sa, sb := spreadOf(a), spreadOf(bv)
			v, change := verdict(b, a, bv, sa, sb)
			if v == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-15s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %+6.1f%% %6.2f  %s\n",
				wl, b.Name, sa.Q1, sa.Median, sa.Q3, sb.Q1, sb.Median, sb.Q3, 100*change, b.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// verdict classifies B against A; change is B's median relative to A's,
// signed so that positive is worse.
func verdict(b boundSpec, a, bv []float64, sa, sb spread) (string, float64) {
	worse := func(x, y float64) bool { // x reads worse than y
		if b.Better == "higher" {
			return x < y
		}
		return x > y
	}
	change := (sb.Median - sa.Median) / sa.Median
	if b.Better == "higher" {
		change = -change
	}
	if math.Max(sa.IQRRatio, sb.IQRRatio) > b.Bound {
		for _, x := range bv {
			for _, y := range a {
				if !worse(y, x) {
					return "unresolved", change
				}
			}
		}
		return "improved", change
	}
	switch {
	case change > b.Bound:
		return "regressed", change
	case change < -b.Bound:
		return "improved", change
	}
	return "ok", change
}
