package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"remapd/internal/det"
)

// This file is the HARNESS domain: the harness timeline. The experiment
// runner, its executors and the dist fleet narrate every cell's
// lifecycle and the fleet's membership, and the report tools each
// report phase, as one stream of typed events — one JSON object per
// line — alongside (not in place of) the free-form Logf lines. The
// stream is the harness's only record: a cell's span is a fold over it
// (FoldSpans), and every count the live /status document and
// remapd-metrics show is one roll-up of it (SummarizeFleet), for
// in-process and fleet runs alike. The schema is strict: decoding
// rejects unknown event kinds, the same contract the per-cell event
// stream enforces, and the wire-stability lint golden pins the field
// set.

// Timeline event kinds. A closed set: DecodeFleetEvents rejects
// anything else, so adding a kind means bumping SchemaVersion.
const (
	// Runner-side cell lifecycle: submit when a run starts, schedule when
	// a runner slot dequeues the cell, and exactly one terminal kind.
	FleetSubmit   = "submit"
	FleetSchedule = "schedule"
	FleetDone     = "cell-done"   // cell produced its result (worker, attempt)
	FleetFailed   = "cell-failed" // cell failed for good (cause)
	FleetCancel   = "cancel"      // the run was cancelled under the cell
	// Executor-side attempts.
	FleetDispatch = "dispatch" // attempt handed to a worker (worker, attempt)
	FleetRun      = "run"      // the attempt's execution wall time (seconds)
	FleetRequeue  = "requeue"  // attempt lost; the cell moves to another (cause)
	// Coordinator-side membership.
	FleetJoin  = "join"  // worker admitted to the fleet
	FleetLeave = "leave" // worker drained gracefully and left
	FleetDrop  = "drop"  // worker removed for cause (error, liveness)
	FleetStall = "stall" // no workers connected; grid is waiting
	// Worker-side connection lifecycle.
	FleetConnect    = "connect"    // worker established a coordinator link
	FleetDisconnect = "disconnect" // worker lost the link (will redial)
	FleetDrain      = "drain"      // worker is draining (signal received)
	FleetSever      = "sever"      // chaos injector cut the link on purpose
	// Tool-side report phases.
	FleetPhase = "phase" // a report phase ended (phase, seconds, alloc bytes)
)

// fleetKinds is the closed set DecodeFleetEvents admits.
var fleetKinds = map[string]bool{
	FleetSubmit: true, FleetSchedule: true, FleetDone: true,
	FleetFailed: true, FleetCancel: true,
	FleetDispatch: true, FleetRun: true, FleetRequeue: true,
	FleetJoin: true, FleetLeave: true, FleetDrop: true, FleetStall: true,
	FleetConnect: true, FleetDisconnect: true, FleetDrain: true,
	FleetSever: true, FleetPhase: true,
}

// FleetEvent is one line of the trace. Seq and ElapsedSeconds are
// stamped by the trace at emission; everything else is filled by the
// emitter as relevant to the kind. Zero-valued fields are omitted, so a
// line carries only what its kind means.
type FleetEvent struct {
	Seq            int     `json:"seq"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Kind           string  `json:"kind"`
	Worker         string  `json:"worker,omitempty"`
	Addr           string  `json:"addr,omitempty"`
	Proto          int     `json:"proto,omitempty"`
	Slots          int     `json:"slots,omitempty"`
	Workers        int     `json:"workers,omitempty"` // fleet size after the event
	Cell           string  `json:"cell,omitempty"`
	Attempt        int     `json:"attempt,omitempty"`
	Cause          string  `json:"cause,omitempty"`
	Seconds        float64 `json:"seconds,omitempty"`
	Phase          string  `json:"phase,omitempty"`
	AllocBytes     uint64  `json:"alloc_bytes,omitempty"`
}

// FleetTrace is a harness timeline: it records events in memory — every
// one, since spans fold out of the whole stream, which keeps it O(cells)
// — and additionally line-by-line into w when non-nil (flushed per
// event, so a crashed coordinator still leaves a readable trace). All
// methods are safe on a nil trace and safe for concurrent use.
type FleetTrace struct {
	mu     sync.Mutex
	start  time.Time
	events []FleetEvent
	w      *bufio.Writer
	closer io.Closer
	err    error
}

// NewSpanRecorder returns a memory-only timeline: what a run records its
// cell spans into when no trace file is kept.
func NewSpanRecorder() *FleetTrace {
	return &FleetTrace{
		//lint:allow no-wall-clock harness-domain trace timestamps measure the machine, never the simulation
		start: time.Now(),
	}
}

// NewFleetTraceFile returns a timeline that also appends JSONL to path.
func NewFleetTraceFile(path string) (*FleetTrace, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open fleet trace: %w", err)
	}
	t := NewSpanRecorder()
	t.w = bufio.NewWriter(f)
	t.closer = f
	return t, nil
}

// Emit records one event, stamping Seq and ElapsedSeconds. Nil-safe.
func (t *FleetTrace) Emit(ev FleetEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.Seq = len(t.events) + 1
	ev.ElapsedSeconds = t.elapsed()
	t.events = append(t.events, ev)
	if t.w != nil && t.err == nil {
		data, err := json.Marshal(ev)
		if err == nil {
			_, err = t.w.Write(append(data, '\n'))
		}
		if err == nil {
			err = t.w.Flush()
		}
		t.err = err
	}
	t.mu.Unlock()
}

// elapsed is the trace's clock: seconds since the trace was created.
func (t *FleetTrace) elapsed() float64 {
	//lint:allow no-wall-clock harness-domain trace timestamps measure the machine, never the simulation
	return time.Since(t.start).Seconds()
}

// StartPhase begins timing a named harness phase (a report section) and
// returns the stop function that records it as one phase event: its
// wall seconds and its allocation volume, the runtime's TotalAlloc delta
// (cumulative allocation, not live heap). Nil-safe: on a nil trace it
// reads no clock and no MemStats, and the stop function does nothing.
func (t *FleetTrace) StartPhase(name string) func() {
	if t == nil {
		return func() {}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAlloc, start := ms.TotalAlloc, t.elapsed()
	return func() {
		runtime.ReadMemStats(&ms)
		t.Emit(FleetEvent{Kind: FleetPhase, Phase: name, Seconds: t.elapsed() - start, AllocBytes: ms.TotalAlloc - startAlloc})
	}
}

// Events snapshots the in-memory record, oldest first. Nil-safe.
func (t *FleetTrace) Events() []FleetEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]FleetEvent(nil), t.events...)
	t.mu.Unlock()
	return out
}

// Close flushes and closes the file sink, reporting the first write
// error if any line was lost. Nil-safe; memory-only traces return nil.
func (t *FleetTrace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		if err := t.w.Flush(); t.err == nil {
			t.err = err
		}
		t.w = nil
	}
	if t.closer != nil {
		if err := t.closer.Close(); t.err == nil {
			t.err = err
		}
		t.closer = nil
	}
	if t.err != nil {
		return fmt.Errorf("obs: fleet trace: %w", t.err)
	}
	return nil
}

// DecodeFleetEvents parses a JSONL fleet trace. Strict, like
// DecodeEvents: an unknown kind or field, a malformed line, or anything
// after a line's JSON value is an error, not a skip — schema drift must
// be loud.
func DecodeFleetEvents(r io.Reader) ([]FleetEvent, error) {
	var out []FleetEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev FleetEvent
		if err := DecodeStrict(raw, &ev); err != nil {
			return nil, fmt.Errorf("obs: fleet trace line %d: %w", line, err)
		}
		if !fleetKinds[ev.Kind] {
			return nil, fmt.Errorf("obs: fleet trace line %d: unknown event kind %q", line, ev.Kind)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: fleet trace: %w", err)
	}
	return out, nil
}

// FleetWorkerSummary is one named worker's row in a timeline summary.
// BusySeconds is the wall time the worker held cells, summed over every
// attempt dispatched to it (run plus wire), requeued ones included.
type FleetWorkerSummary struct {
	Worker      string  `json:"worker"`
	Done        int     `json:"done"`
	Failed      int     `json:"failed"`
	Requeues    int     `json:"requeues"`
	BusySeconds float64 `json:"busy_seconds"`
}

// FleetSummary is the one roll-up of a harness timeline: the live
// /status "timeline" section and what remapd-metrics prints. It covers
// cell progress, where the finished cells' wall time went (queue, wire
// and run seconds summed over their spans, and the slowest of them),
// membership churn, requeue causes, per-worker counts and the report
// phases. ElapsedSeconds is the last event's offset.
type FleetSummary struct {
	Events         int                  `json:"events"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Joins          int                  `json:"joins"`
	Drops          int                  `json:"drops"`
	Leaves         int                  `json:"leaves"`
	Stalls         int                  `json:"stalls"`
	Requeues       int                  `json:"requeues"`
	Cells          int                  `json:"cells"` // cells submitted
	CellsDone      int                  `json:"cells_done"`
	CellsFailed    int                  `json:"cells_failed"`
	QueueSeconds   float64              `json:"queue_seconds"`
	WireSeconds    float64              `json:"wire_seconds"`
	RunSeconds     float64              `json:"run_seconds"`
	RequeueCauses  map[string]int       `json:"requeue_causes,omitempty"`
	Workers        []FleetWorkerSummary `json:"workers,omitempty"`
	Phases         []FleetEvent         `json:"phases,omitempty"`  // phase events, in recorded order
	Slowest        []CellSpanData       `json:"slowest,omitempty"` // see SlowestSpans
}

// slowestSpans caps how many full spans a summary carries.
const slowestSpans = 5

// SummarizeFleet rolls a timeline up. Worker rows come only from events
// that name a worker, so an in-process run has none.
func SummarizeFleet(events []FleetEvent) FleetSummary {
	sum := FleetSummary{Events: len(events), RequeueCauses: map[string]int{}}
	workers := map[string]*FleetWorkerSummary{}
	worker := func(name string) *FleetWorkerSummary {
		w := workers[name]
		if w == nil {
			w = &FleetWorkerSummary{Worker: name}
			workers[name] = w
		}
		return w
	}
	for _, ev := range events {
		switch ev.Kind {
		case FleetJoin:
			sum.Joins++
		case FleetDrop:
			sum.Drops++
		case FleetLeave:
			sum.Leaves++
		case FleetStall:
			sum.Stalls++
		case FleetRequeue:
			sum.Requeues++
			cause := ev.Cause
			if cause == "" {
				cause = "(unattributed)"
			}
			sum.RequeueCauses[cause]++
			worker(ev.Worker).Requeues++
		case FleetSubmit:
			sum.Cells++
		case FleetDone:
			sum.CellsDone++
			worker(ev.Worker).Done++
		case FleetFailed:
			sum.CellsFailed++
			worker(ev.Worker).Failed++
		case FleetPhase:
			sum.Phases = append(sum.Phases, ev)
		}
	}
	if n := len(events); n > 0 {
		sum.ElapsedSeconds = events[n-1].ElapsedSeconds
	}
	spans := FoldSpans(events)
	for _, sp := range spans {
		sum.QueueSeconds += sp.QueueSeconds
		for _, a := range sp.Attempts {
			sum.WireSeconds += a.WireSeconds
			sum.RunSeconds += a.RunSeconds
			worker(a.Worker).BusySeconds += a.RunSeconds + a.WireSeconds
		}
	}
	sum.Slowest = SlowestSpans(spans, slowestSpans)
	if len(sum.RequeueCauses) == 0 {
		sum.RequeueCauses = nil
	}
	delete(workers, "")
	for _, name := range det.SortedKeys(workers) {
		sum.Workers = append(sum.Workers, *workers[name])
	}
	return sum
}
