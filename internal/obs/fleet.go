package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"remapd/internal/det"
)

// This file is the HARNESS domain: the structured fleet event trace.
// The dist fleet narrates its membership and scheduling decisions as a
// stream of typed events — one JSON object per line — instead of (not
// in place of: the free-form Logf lines remain) human-oriented log
// text. The trace is always recorded in memory, whether or not the
// embedder supplied a Logf or a file sink, so a dropped worker always
// leaves a record. The schema is strict: decoding rejects unknown event
// kinds, the same contract the per-cell event stream enforces, and the
// wire-stability lint golden pins the field set.

// Fleet event kinds. A closed set: DecodeFleetEvents rejects anything
// else, so adding a kind means bumping SchemaVersion.
const (
	// Coordinator-side membership and scheduling.
	FleetJoin    = "join"      // worker admitted to the fleet
	FleetLeave   = "leave"     // worker drained gracefully and left
	FleetDrop    = "drop"      // worker removed for cause (error, liveness)
	FleetRequeue = "requeue"   // in-flight cell moved to another attempt
	FleetStall   = "stall"     // no workers connected; grid is waiting
	FleetDone    = "cell-done" // cell completed on a worker
	// Worker-side connection lifecycle.
	FleetConnect    = "connect"    // worker established a coordinator link
	FleetDisconnect = "disconnect" // worker lost the link (will redial)
	FleetDrain      = "drain"      // worker is draining (signal received)
	FleetSever      = "sever"      // chaos injector cut the link on purpose
)

// fleetKinds is the closed set DecodeFleetEvents admits.
var fleetKinds = map[string]bool{
	FleetJoin: true, FleetLeave: true, FleetDrop: true,
	FleetRequeue: true, FleetStall: true, FleetDone: true,
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

// fleetTraceRing bounds the in-memory record so a long-lived fleet
// cannot grow without limit; the file sink, when present, keeps
// everything.
const fleetTraceRing = 4096

// FleetTrace records fleet events: always into a bounded in-memory
// ring, and additionally line-by-line into w when non-nil (flushed per
// event, so a crashed coordinator still leaves a readable trace). All
// methods are safe on a nil trace and safe for concurrent use.
type FleetTrace struct {
	mu     sync.Mutex
	start  time.Time
	seq    int
	events []FleetEvent
	w      *bufio.Writer
	closer io.Closer
	err    error
}

// NewFleetTrace returns a memory-only trace.
func NewFleetTrace() *FleetTrace {
	return &FleetTrace{
		//lint:allow no-wall-clock harness-domain trace timestamps measure the machine, never the simulation
		start: time.Now(),
	}
}

// NewFleetTraceFile returns a trace that also appends JSONL to path.
func NewFleetTraceFile(path string) (*FleetTrace, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open fleet trace: %w", err)
	}
	t := NewFleetTrace()
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
	t.seq++
	ev.Seq = t.seq
	//lint:allow no-wall-clock harness-domain trace timestamps measure the machine, never the simulation
	ev.ElapsedSeconds = time.Since(t.start).Seconds()
	if len(t.events) == fleetTraceRing {
		t.events = append(t.events[:0], t.events[1:]...)
	}
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

// Events snapshots the in-memory record (oldest first, up to the ring
// bound). Nil-safe.
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
	SlowestCells  []FleetEvent         `json:"slowest_cells,omitempty"`
}

// SummarizeFleet rolls a trace up: membership churn, requeue causes,
// per-worker utilization, and the slowest completed cells.
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
	var done []FleetEvent
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
			w := worker(ev.Worker)
			w.Done++
			w.BusySeconds += ev.Seconds
			done = append(done, ev)
		}
	}
	if len(sum.RequeueCauses) == 0 {
		sum.RequeueCauses = nil
	}
	for _, name := range det.SortedKeys(workers) {
		sum.Workers = append(sum.Workers, *workers[name])
	}
	sort.Slice(done, func(i, j int) bool {
		if done[i].Seconds != done[j].Seconds { //lint:allow float-eq tie-break ordering only; equal values fall through to the cell comparison
			return done[i].Seconds > done[j].Seconds
		}
		return done[i].Cell < done[j].Cell
	})
	if len(done) > slowestSpans {
		done = done[:slowestSpans]
	}
	sum.SlowestCells = done
	return sum
}
