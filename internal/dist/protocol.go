// Package dist fans experiment cells out to worker processes. The
// coordinator side plugs into the experiment runner as its CellExecutor:
// the runner keeps its scheduling discipline — bounded in-flight set,
// first-error cancellation, deterministic result reassembly by submission
// index — and dist only changes where each cell's work happens.
//
// There is one executor, Fleet. It listens on a net.Listener; worker
// processes dial in (-worker -connect host:port), advertise a slot count
// in their hello, and the fleet work-steals cells across whatever workers
// are currently connected. Workers may join and leave mid-grid;
// heartbeats detect dead or partitioned workers and their in-flight cells
// are requeued onto survivors. A fleet comes from one of two
// constructors:
//
//   - NewFleet wraps a caller's listener; workers on any machine join it
//     (the -listen path).
//   - SpawnFleet listens on a loopback port and execs N local workers of
//     the same binary into it, respawning any that die (the -dist N path).
//
// The worker side is the same binary run with -worker -connect: it reads
// serialized cell specs, runs each through experiments.CellSpec.Execute —
// the same single run path the in-process executor calls — and writes the
// *trainer.Result back (DialAndServe), up to its advertised slot count
// concurrently, demultiplexed by request ID.
//
// The protocol is line-delimited JSON over TCP. One request or reply per
// line; requests flow coordinator→worker, replies worker→coordinator.
//
// Determinism: a spec is pure coordinates, Execute is deterministic in
// those coordinates, and a trainer.Result is a scalar struct that
// survives a JSON round-trip exactly (encoding/json renders float64
// shortest-round-trip), so a cell computes identical bytes no matter
// which process or machine runs it — the dist and fleet Fig. 6
// byte-identity tests pin this, including under injected network faults
// (see chaos.go).
//
// Fault tolerance: a worker crash, severed connection, malformed reply,
// or missed heartbeat deadline requeues the cell on another worker (bounded retries with a deterministic exponential
// backoff schedule, per-cell attempt logging). Cells checkpoint into a
// shared -checkpoint-dir, so a retried cell resumes from its last
// completed epoch instead of restarting — checkpoints, not protocol
// replies, are the durable record.
package dist

import "encoding/json"

// ProtoVersion is the wire protocol version this binary speaks. The
// coordinator and its workers always ship in the same binary, so there is
// nothing to negotiate: the worker's hello carries the version and the
// coordinator admits exactly this one. Bump it (and run `make
// wire-golden`) on any change to the field sets below, or to what a
// run request's spec encodes.
const ProtoVersion = 8

// Request is one coordinator→worker line.
type Request struct {
	// Type is "run" (execute Spec, reply with a result), "heartbeat"
	// (reply with a heartbeat echoing ID — liveness probe), or "shutdown"
	// (finish nothing — the worker cancels its in-flight cells and exits).
	Type string `json:"type"`
	// ID correlates the request's replies; the worker echoes it on every
	// log, result and heartbeat line. Monotonic per coordinator, never
	// reused.
	ID int64 `json:"id,omitempty"`
	// Spec is the serialized experiments.CellSpec for a run request.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Reply is one worker→coordinator line.
type Reply struct {
	// Type is "hello" (first line after connecting), "log" (one progress
	// line from an in-flight cell), "result" (a cell finished),
	// "heartbeat" (liveness echo), or "goodbye" (the worker is draining:
	// it will finish its in-flight cells, send their results, and
	// disconnect — assign it nothing new).
	Type string `json:"type"`
	// Proto and PID describe the worker on hello.
	Proto int `json:"proto,omitempty"`
	PID   int `json:"pid,omitempty"`
	// Slots is the worker's concurrent-cell capacity, advertised on
	// hello; a hello with fewer than one slot is rejected.
	Slots int `json:"slots,omitempty"`
	// ID echoes the request being answered (log, result, heartbeat).
	ID int64 `json:"id,omitempty"`
	// Line is one progress line (log).
	Line string `json:"line,omitempty"`
	// Value carries a successful result: the cell's *trainer.Result,
	// JSON-encoded.
	Value json.RawMessage `json:"value,omitempty"`
	// Error carries a failed result: the cell ran to a deterministic
	// error. Protocol failures have no reply at all — they surface as a
	// dead or silent worker.
	Error string `json:"error,omitempty"`
	// Seconds is the wall time the worker spent executing the cell, on a
	// result. Purely harness-domain: the coordinator records it as the
	// attempt's run event on the harness timeline, and it never
	// influences results.
	Seconds float64 `json:"seconds,omitempty"`
}
