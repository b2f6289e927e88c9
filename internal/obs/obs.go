// Package obs is the deterministic telemetry layer of the simulator. It
// has two strictly separated domains:
//
// The *simulation domain* (Recorder, Registry, Trace, Event and the Sink
// that persists them) is keyed exclusively by simulated coordinates —
// cell key, epoch, optimizer step, crossbar id — and never reads the wall
// clock or draws randomness. Recording is pure observation: a run with a
// Recorder attached produces bit-identical results to a run without one,
// which the telemetry-determinism test in internal/experiments proves.
// The default Recorder is nil, and every instrumentation site nil-guards,
// so the disabled path costs nothing (zero allocations on the matmul hot
// path, see BenchmarkWeightsWrittenNilRecorder).
//
// The *harness domain* (the harness timeline, the cell spans and the
// summary folded from it, StartStatusServer) belongs to the runner and
// the cmd tools: it measures wall time and allocations of the harness
// itself — per experiment cell and per report phase, all as timeline
// events — behind explicit //lint:allow no-wall-clock directives, and
// serves /status, net/http/pprof and expvar for live inspection.
// Nothing in the harness domain feeds back into simulation state.
//
// See DESIGN.md §11 for the event schema and the determinism contract.
package obs

// Recorder receives simulation-domain telemetry. Implementations must be
// safe for use from a single cell (the parallel runner gives every cell
// its own Trace; nothing is shared across cells). Callers hold a nil
// Recorder by default and must nil-guard before calling — the guard, not
// a no-op implementation, is what keeps the disabled hot path free of
// interface-call and argument-boxing costs.
type Recorder interface {
	// Add increments the named counter by delta.
	//
	//lint:hotpath counters are bumped inside the per-batch training loop
	Add(name string, delta int64)
	// Set writes the named gauge (last value wins).
	Set(name string, v float64)
	// Observe adds v to the named histogram.
	Observe(name string, v float64)
	// Emit appends a structured event to the trace.
	Emit(ev Event)
}
