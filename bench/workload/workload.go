// Package workload implements the benchmark's four workloads. Each drives
// remapd only through its public entry points (trainer.Train,
// experiments.Fig6 behind cli.Options, serve.Server and serve.Front) and
// repeats a fixed, seeded unit of work, checking every unit's output.
package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"remapd/bench"
	"remapd/bench/trace"
)

// Options configures one workload run.
type Options struct {
	Seed uint64
	// Seconds bounds the measured work: after the first unit, another
	// unit starts only while the units so far plus one more of their mean
	// length fit.
	Seconds float64
	// Short shrinks every unit to a smoke-test size (tests only; there
	// are no committed digests for it).
	Short bool
	// TraceDir, when non-empty, makes the run traced: the layer wrappers
	// are installed, per-layer metrics are reported, and the spans are
	// written to TraceDir as JSONL.
	TraceDir string
	// Logf receives progress lines (never nil).
	Logf func(format string, args ...interface{})
}

// Outcome is what one workload run measured and checked.
type Outcome struct {
	Attempted, Failed int
	// EndToEnd holds every end-to-end metric but peak_rss_mb, which is a
	// property of the whole process and is added by the caller.
	EndToEnd map[string]float64
	// PerLayer holds the per-layer metrics of a traced run (nil
	// otherwise); metrics of layers the workload does not reach are
	// absent.
	PerLayer map[string]float64
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(m *measured, throughput float64, latencyMS []float64) map[string]float64 {
	return map[string]float64{
		"setup_s":        m.setupMedian(),
		"throughput":     throughput,
		"latency_p50_ms": bench.Quantile(latencyMS, 0.50),
		"latency_p99_ms": bench.Quantile(latencyMS, 0.99),
	}
}

// Workload is one benchmark workload.
type Workload struct {
	Name string
	run  func(ctx context.Context, o Options) (*Outcome, error)
}

// Run executes the workload.
func (w Workload) Run(ctx context.Context, o Options) (*Outcome, error) {
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	if o.TraceDir != "" {
		if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("workload: trace dir: %w", err)
		}
	}
	return w.run(ctx, o)
}

// All lists the workloads in the order a full benchmark run executes them.
// Each stresses a different part of remapd:
//   - train-vgg11: GEMM-bound training that rewrites every weight each
//     step, so the chip re-clamps every step;
//   - grid-fig6: the quick Fig. 6 policy grid over two dist worker
//     processes, every policy path plus runner and dist overhead;
//   - serve-drive: closed-loop, forward-only, read-mostly serving on two
//     wearing chips, with online BIST and Remap-D maintenance in the tail;
//   - serve-http: open-loop POST /classify over two keep-alive
//     connections, the HTTP edge and Front's flush ticker.
var All = []Workload{
	{"train-vgg11", runTrain},
	{"grid-fig6", runGrid},
	{"serve-drive", runDrive},
	{"serve-http", runHTTP},
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range All {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// minSetups is how many times a run sets up at least, so that setup_s is
// the median of enough samples to be steady.
const minSetups = 5

// setupFunc builds everything one unit of work needs. tr is nil in an
// untraced run. It returns the unit of work and a teardown that releases
// what the set-up acquired; teardown runs whether or not work did.
type setupFunc func(tr *trace.Tracer) (work func() error, teardown func(), err error)

// measured is the timing record of a run's set-ups and units.
type measured struct {
	setupS  []float64
	unitS   []float64
	tracers []*trace.Tracer // one per unit, traced runs only
}

// measure runs set-up/unit cycles: always one unit and at least minSetups
// set-ups; after the first unit it starts another only while the units
// measured so far plus one more of their mean length fit in o.Seconds.
// Set-ups made only to sample set-up time are torn down unused.
func measure(o Options, setup setupFunc) (*measured, error) {
	m := &measured{}
	var worked float64
	for {
		more := len(m.unitS) == 0 || worked*float64(len(m.unitS)+1)/float64(len(m.unitS)) <= o.Seconds
		if !more && len(m.setupS) >= minSetups {
			return m, nil
		}
		var tr *trace.Tracer
		if o.TraceDir != "" && more {
			tr = trace.New()
		}
		t0 := time.Now()
		work, teardown, err := setup(tr)
		if err != nil {
			return nil, err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		if more {
			t1 := time.Now()
			if err = work(); err == nil {
				d := time.Since(t1).Seconds()
				worked += d
				m.unitS = append(m.unitS, d)
				if tr != nil {
					m.tracers = append(m.tracers, tr)
				}
			}
		}
		teardown()
		// Start every set-up from a collected heap, so that garbage of the
		// previous cycle does not add to the next one's peak RSS.
		runtime.GC()
		if err != nil {
			return nil, err
		}
	}
}

// setupMedian is the run's setup_s.
func (m *measured) setupMedian() float64 { return bench.Quantile(m.setupS, 0.5) }

// unitMedian is the median of per-unit values f(unit seconds), e.g. a
// throughput.
func (m *measured) unitMedian(f func(seconds float64) float64) float64 {
	vs := make([]float64, len(m.unitS))
	for i, s := range m.unitS {
		vs[i] = f(s)
	}
	return bench.Quantile(vs, 0.5)
}

// perUnit divides summed per-layer values by the number of units, so a
// traced run reports seconds (and counts) per unit of work.
func (m *measured) perUnit(sum map[string]float64) map[string]float64 {
	for k, v := range sum {
		sum[k] = v / float64(len(m.unitS))
	}
	return sum
}

// spansPath is the JSONL file a traced run writes its spans to.
func spansPath(o Options, name string) string {
	return filepath.Join(o.TraceDir, fmt.Sprintf("%s.seed%d.spans.jsonl", name, o.Seed))
}

// writeSpans writes every unit's spans to the workload's spans file.
func (m *measured) writeSpans(o Options, name string) error {
	path := spansPath(o, name)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("workload: %w", err)
	}
	for i, tr := range m.tracers {
		if err := tr.AppendJSONL(path, i); err != nil {
			return err
		}
	}
	o.Logf("spans written to %s", path)
	return nil
}

// writeJSONL writes items, one JSON object per line, to the workload's
// spans file.
func writeJSONL[T any](o Options, name string, items []T) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return fmt.Errorf("workload: encode span: %w", err)
		}
	}
	path := spansPath(o, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	o.Logf("spans written to %s", path)
	return nil
}

// addLayerMetrics sums the nn/arch/remap roll-up of every unit's tracer
// into sum.
func (m *measured) addLayerMetrics(sum map[string]float64) {
	for _, tr := range m.tracers {
		for k, v := range tr.LayerMetrics(bench.LayerKinds, bench.LayerPhases) {
			sum[k] += v
		}
	}
}

// digester accumulates a unit's canonical output text and checks its
// SHA-256 against the committed digest for the workload and seed.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(format string, args ...interface{}) {
	fmt.Fprintf(d.h, format+"\n", args...)
}

// check compares the digest with the committed one. It reports whether
// the unit passes: true when they match, and true (with a note that the
// check was skipped) when no digest is committed for this seed or the run
// is short.
func (d *digester) check(o Options, workload string) bool {
	got := hex.EncodeToString(d.h.Sum(nil))
	if o.Short {
		return true
	}
	want, ok := bench.Digest(workload, o.Seed)
	if !ok {
		o.Logf("digest %s seed %d: %s (no committed digest for this seed; check skipped)", workload, o.Seed, got)
		return true
	}
	if got != want {
		o.Logf("digest %s seed %d: got %s, want %s: MISMATCH", workload, o.Seed, got, want)
		return false
	}
	o.Logf("digest %s seed %d: %s (matches)", workload, o.Seed, got)
	return true
}

// ms converts seconds to milliseconds.
func ms(s []float64) []float64 {
	out := make([]float64, len(s))
	for i, v := range s {
		out[i] = v * 1e3
	}
	return out
}
