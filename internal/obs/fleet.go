package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"remapd/internal/det"
)

// This file is the HARNESS domain: the harness timeline. The experiment
// runner, its executors and the dist fleet narrate every cell's
// lifecycle and the fleet's membership as one stream of typed events —
// one JSON object per line — alongside (not in place of) the free-form
// Logf lines. A cell's span is a fold over that stream (FoldSpans), so
// the stream is the only record of where a cell's wall time went, for
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
)

// fleetKinds is the closed set DecodeFleetEvents admits.
var fleetKinds = map[string]bool{
	FleetSubmit: true, FleetSchedule: true, FleetDone: true,
	FleetFailed: true, FleetCancel: true,
	FleetDispatch: true, FleetRun: true, FleetRequeue: true,
	FleetJoin: true, FleetLeave: true, FleetDrop: true, FleetStall: true,
	FleetConnect: true, FleetDisconnect: true, FleetDrain: true,
	FleetSever: true,
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
	//lint:allow no-wall-clock harness-domain trace timestamps measure the machine, never the simulation
	ev.ElapsedSeconds = time.Since(t.start).Seconds()
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

// FleetWorkerSummary is one worker's row in a trace summary.
// BusySeconds is the wall time the worker held cells, summed over every
// attempt dispatched to it (run plus wire), requeued ones included.
type FleetWorkerSummary struct {
	Worker      string  `json:"worker"`
	Done        int     `json:"done"`
	Requeues    int     `json:"requeues"`
	BusySeconds float64 `json:"busy_seconds"`
}

// FleetSummary is what remapd-metrics -fleet prints: how the run went,
// by worker and by failure cause.
type FleetSummary struct {
	Events        int                  `json:"events"`
	Joins         int                  `json:"joins"`
	Drops         int                  `json:"drops"`
	Leaves        int                  `json:"leaves"`
	Stalls        int                  `json:"stalls"`
	Requeues      int                  `json:"requeues"`
	CellsDone     int                  `json:"cells_done"`
	RequeueCauses map[string]int       `json:"requeue_causes,omitempty"`
	Workers       []FleetWorkerSummary `json:"workers,omitempty"`
}

// SummarizeFleet rolls a trace up: membership churn, requeue causes and
// per-worker utilization. The slowest cells are its spans' business
// (SlowestSpans over FoldSpans).
func SummarizeFleet(events []FleetEvent) FleetSummary {
	sum := FleetSummary{Events: len(events), RequeueCauses: map[string]int{}}
	workers := map[string]*FleetWorkerSummary{}
	worker := func(name string) *FleetWorkerSummary {
		if name == "" {
			name = "(unknown)"
		}
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
		case FleetDone:
			sum.CellsDone++
			worker(ev.Worker).Done++
		}
	}
	for _, sp := range FoldSpans(events) {
		for _, a := range sp.Attempts {
			worker(a.Worker).BusySeconds += a.RunSeconds + a.WireSeconds
		}
	}
	if len(sum.RequeueCauses) == 0 {
		sum.RequeueCauses = nil
	}
	for _, name := range det.SortedKeys(workers) {
		sum.Workers = append(sum.Workers, *workers[name])
	}
	return sum
}
