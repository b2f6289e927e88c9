// Package bench holds what every part of the remapd benchmark shares: the
// result record a run prints, the catalog of metric names and units, the
// quantile rule, and the committed output digests.
//
// The benchmark itself is cmd/remapd-bench; the workloads live in
// bench/workload and the traced run's layer wrappers in bench/trace.
package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"remapd/internal/experiments"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the record one benchmark run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Spec names one metric and its unit.
type Spec struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics an untraced run reports on every workload.
// What each one counts on each workload is documented in bench/README.md.
var EndToEnd = []Spec{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// LayerKinds are the nn layer kinds of the benchmark's models (vgg11), as
// the traced run names them: the lower-cased Go type name.
var LayerKinds = []string{"conv2d", "batchnorm2d", "relu", "maxpool2d", "globalavgpool", "linear"}

// LayerPhases are the four ways a layer runs: a training forward pass, the
// backward pass, an evaluation forward pass (Forward with train=false) and
// a serving forward pass (Infer).
var LayerPhases = []string{"fwd", "bwd", "eval", "infer"}

// HTTPRates are the open-loop offered rates of the serve-http workload, in
// requests per second.
var HTTPRates = []int{80, 160, 320}

// PerLayer lists the metrics a traced run reports on every workload; a
// layer the workload does not exercise reports 0. Times are seconds per
// unit of work (one training run, one grid, one drive, one rate sweep).
func PerLayer() []Spec {
	var out []Spec
	for _, k := range LayerKinds {
		for _, ph := range LayerPhases {
			out = append(out, Spec{"nn." + k + "." + ph + "_s", "s"}, Spec{"nn." + k + "." + ph + "_calls", "count"})
		}
	}
	out = append(out,
		Spec{"arch.effective_fwd_s", "s"},
		Spec{"arch.effective_bwd_s", "s"},
		Spec{"arch.transform_grad_s", "s"},
		Spec{"arch.weights_written_s", "s"},
		Spec{"arch.calls", "count"},
		Spec{"remap.deploy_s", "s"},
		Spec{"remap.maintain_s", "s"},
		Spec{"remap.maintain_calls", "count"},
		Spec{"remap.swaps", "count"},
		Spec{"remap.senders", "count"},
		Spec{"remap.unmatched", "count"},
		Spec{"remap.bist_cycles", "cycles"},
		Spec{"remap.noc_cycles", "cycles"},
		Spec{"trainer.epoch_s", "s"},
		Spec{"trainer.self_s", "s"},
		Spec{"serve.batch_s", "s"},
		Spec{"serve.scan_s", "s"},
		Spec{"serve.enqueue_s", "s"},
		Spec{"serve.self_s", "s"},
		Spec{"serve.batches", "count"},
		Spec{"serve.deadline_flushes", "count"},
		Spec{"serve.bist_scans", "count"},
		Spec{"serve.maintain_rounds", "count"},
		Spec{"serve.online_swaps", "count"},
		Spec{"serve.wear_faults", "count"},
		Spec{"serve.batch_size_mean", "count"},
	)
	for _, r := range HTTPRates {
		p := HTTPRatePrefix(r)
		out = append(out,
			Spec{p + ".p50_ms", "ms"},
			Spec{p + ".p99_ms", "ms"},
			Spec{p + ".handler_p50_ms", "ms"},
			Spec{p + ".batch_size_mean", "count"},
			Spec{p + ".gen_late_p99_ms", "ms"},
		)
	}
	out = append(out,
		Spec{"http.max_ok_rps", "1/s"},
		Spec{"grid.queue_s", "s"},
		Spec{"grid.wire_s", "s"},
		Spec{"grid.run_s", "s"},
	)
	for _, p := range experiments.PolicyNames() {
		out = append(out, Spec{"grid.run_s." + p, "s"})
	}
	return append(out, Spec{"grid.attempts", "count"})
}

// HTTPRatePrefix names the per-rate metric group of an offered rate, e.g.
// "http.r080".
func HTTPRatePrefix(rps int) string { return fmt.Sprintf("http.r%03d", rps) }

// Fill returns the metrics of specs, taking each value from got and 0
// where got lacks it. The unit always comes from the catalog.
func Fill(specs []Spec, got map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(specs))
	for _, s := range specs {
		out[s.Name] = Metric{Value: got[s.Name], Unit: s.Unit}
	}
	return out
}

// Quantile returns the q-quantile of xs by the exclusive method, the
// default of Python's statistics.quantiles: position q·(n+1) in the sorted
// sample, interpolated between neighbours and clamped to the extremes.
// It returns NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n+1)
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	lo, hi, frac := s[j-1], s[j], pos-float64(j)
	switch {
	case frac == 0 || lo == hi:
		return lo
	case math.IsInf(hi, 1): // a failed request's +Inf latency
		return hi
	}
	return lo + frac*(hi-lo)
}

//go:embed testdata/digests.json
var digestsJSON []byte

// Digest returns the committed output digest of a workload at a seed.
func Digest(workload string, seed uint64) (string, bool) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		panic("bench: testdata/digests.json is not valid JSON: " + err.Error())
	}
	d, ok := all[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}
