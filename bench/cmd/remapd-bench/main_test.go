package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"remapd/bench"
	"remapd/bench/workload"
)

// TestMain lets the test binary stand in for remapd-bench as a dist
// worker: the grid workload's executor re-executes os.Executable() with
// -worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(worker(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []boundSpec `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmark pins BENCHMARK.json to what the code
// measures: the same workloads, and the same metric names and units.
func TestCatalogMatchesBenchmark(t *testing.T) {
	b := readBenchmark(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workload.All {
		want = append(want, w.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	for _, c := range []struct {
		declared []boundSpec
		catalog  []bench.Spec
	}{{b.EndToEnd, bench.EndToEnd}, {b.PerLayer, bench.PerLayer()}} {
		var got, want []string
		for _, s := range c.declared {
			got = append(got, s.Name+" "+s.Unit)
		}
		for _, s := range c.catalog {
			want = append(want, s.Name+" "+s.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json metrics %v\ncatalog %v", got, want)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload at smoke-test size,
// untraced and traced, and checks that each emits every metric of
// BENCHMARK.json with its unit and checks all it attempts.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	b := readBenchmark(t)
	for _, w := range workload.All {
		for _, traceDir := range []string{"0", t.TempDir()} {
			var out bytes.Buffer
			f := flags{workload: w.Name, seed: 1, seconds: 0.1, trace: traceDir, short: true}
			if code := child(context.Background(), &out, f); code != 0 {
				t.Fatalf("%s (trace %s): exit %d", w.Name, traceDir, code)
			}
			var rep childReport
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s: %d attempted, %d failed", w.Name, rep.Attempted, rep.Failed)
			}
			want, got := b.EndToEnd, rep.EndToEnd
			if traceDir != "0" {
				want, got = b.PerLayer, rep.PerLayer
			}
			for _, s := range want {
				if m, ok := got[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("%s (trace %s): metric %s = %+v, want unit %s", w.Name, traceDir, s.Name, m, s.Unit)
				}
			}
			for _, s := range b.EndToEnd {
				if v := rep.EndToEnd[s.Name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, s.Name, v)
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "throughput", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		spec boundSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{103, 104, 102, 103, 103}, "ok"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "improved"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "improved"},
		{lower, steady, []float64{70, 130, 100, 60, 140}, "unresolved"},
		{lower, []float64{100, 130, 70, 100, 100}, []float64{50, 51, 52, 53, 54}, "improved"},
	} {
		got, _ := verdict(c.spec, c.a, c.b, spreadOf(c.a), spreadOf(c.b))
		if got != c.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", c.spec.Name, c.a, c.b, got, c.want)
		}
	}
}
