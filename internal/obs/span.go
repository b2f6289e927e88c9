package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// This file is the HARNESS domain: cell lifecycle spans. A span covers
// one cell's trip through the experiment runner — submit → schedule →
// dispatch → run → result (or requeue and dispatch again) — and
// attributes its wall time to queueing, wire overhead, and execution,
// per attempt. Spans are not recorded on their own: they fold out of the
// harness timeline (fleet.go), whose run events carry the execution time
// the worker measured (the dist result reply's seconds for remote cells;
// measured directly for in-process ones); every other edge is stamped
// coordinator-side. Like the rest of the harness domain, spans describe
// the machine, never the simulation: recording them cannot change cell
// results, which the span byte-identity tests pin.

// SpanAttempt is one dispatch of a cell onto a worker. DispatchSeconds
// is the offset from the cell's submission; WireSeconds is the
// dispatch→outcome wall time not accounted to execution (protocol
// framing, network transit, scheduling slack). A requeued attempt is
// Failed; RunSeconds is zero when the worker died before its result
// reply could arrive.
type SpanAttempt struct {
	Attempt         int     `json:"attempt"`
	Worker          string  `json:"worker,omitempty"`
	DispatchSeconds float64 `json:"dispatch_seconds"`
	RunSeconds      float64 `json:"run_seconds"`
	WireSeconds     float64 `json:"wire_seconds"`
	Failed          bool    `json:"failed,omitempty"`
}

// CellSpanData is one finished cell span: where the cell's wall time
// went, across every attempt it took.
type CellSpanData struct {
	Cell         string        `json:"cell"`
	Outcome      string        `json:"outcome"` // ok | failed | cancelled
	QueueSeconds float64       `json:"queue_seconds"`
	TotalSeconds float64       `json:"total_seconds"`
	Attempts     []SpanAttempt `json:"attempts"`
}

// FoldSpans rebuilds the finished cell spans from a timeline, in event
// order. Each submit opens a span for its cell key (a key submitted
// again later opens a fresh one); the first schedule or dispatch ends
// its queue time; each dispatch opens an attempt, a run event sets the
// attempt's run time, and a requeue or the terminal event closes it
// with wire time = end − dispatch − run (never negative). An attempt
// counts as failed unless it ended in cell-done. The terminal event
// seals the span: its total time runs from submit, and its kind names
// the outcome. Spans that never reached a terminal event are left out;
// the rest come out sorted by cell key.
func FoldSpans(events []FleetEvent) []CellSpanData {
	live := map[string]*foldSpan{}
	var out []CellSpanData
	for _, ev := range events {
		if ev.Kind == FleetSubmit {
			live[ev.Cell] = &foldSpan{data: CellSpanData{Cell: ev.Cell}, submit: ev.ElapsedSeconds}
			continue
		}
		sp := live[ev.Cell]
		if sp == nil {
			continue
		}
		if !sp.queued && (ev.Kind == FleetSchedule || ev.Kind == FleetDispatch) {
			sp.queued = true
			sp.data.QueueSeconds = ev.ElapsedSeconds - sp.submit
		}
		switch ev.Kind {
		case FleetDispatch:
			sp.inFlight = true
			sp.dispatch = ev.ElapsedSeconds
			sp.data.Attempts = append(sp.data.Attempts, SpanAttempt{
				Attempt:         len(sp.data.Attempts) + 1,
				Worker:          ev.Worker,
				DispatchSeconds: ev.ElapsedSeconds - sp.submit,
			})
		case FleetRun:
			if sp.inFlight {
				sp.data.Attempts[len(sp.data.Attempts)-1].RunSeconds = ev.Seconds
			}
		case FleetRequeue:
			sp.end(ev.ElapsedSeconds, true)
		case FleetDone, FleetFailed, FleetCancel:
			sp.end(ev.ElapsedSeconds, ev.Kind != FleetDone)
			sp.data.Outcome = outcomes[ev.Kind]
			sp.data.TotalSeconds = ev.ElapsedSeconds - sp.submit
			out = append(out, sp.data)
			delete(live, ev.Cell)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// foldSpan is one span FoldSpans has opened and not yet sealed.
type foldSpan struct {
	data     CellSpanData
	submit   float64
	queued   bool
	inFlight bool // an attempt is open: dispatched, not yet ended
	dispatch float64
}

// end closes the open attempt, if any, at timeline offset at.
func (sp *foldSpan) end(at float64, failed bool) {
	if !sp.inFlight {
		return
	}
	sp.inFlight = false
	a := &sp.data.Attempts[len(sp.data.Attempts)-1]
	a.WireSeconds = math.Max(0, at-sp.dispatch-a.RunSeconds)
	a.Failed = failed
}

// outcomes names a span's outcome after its terminal event kind.
var outcomes = map[string]string{FleetDone: "ok", FleetFailed: "failed", FleetCancel: "cancelled"}

// Spans folds the timeline's finished cell spans (see FoldSpans). Safe
// on a nil timeline (no spans).
func (t *FleetTrace) Spans() []CellSpanData { return FoldSpans(t.Events()) }

// SlotSeconds is the wall time the cell held a runner slot: from leaving
// the queue to its outcome, every attempt and requeue included.
func (d CellSpanData) SlotSeconds() float64 { return d.TotalSeconds - d.QueueSeconds }

// SlowestSpans returns up to n spans ranked by SlotSeconds, slowest
// first, ties broken by cell key.
func SlowestSpans(spans []CellSpanData, n int) []CellSpanData {
	slowest := append([]CellSpanData(nil), spans...)
	sort.Slice(slowest, func(i, j int) bool {
		si, sj := slowest[i].SlotSeconds(), slowest[j].SlotSeconds()
		if si != sj { //lint:allow float-eq tie-break ordering only; equal values fall through to the name comparison
			return si > sj
		}
		return slowest[i].Cell < slowest[j].Cell
	})
	if len(slowest) > n {
		slowest = slowest[:n]
	}
	return slowest
}

// TimelineFile names the harness timeline inside a metrics directory.
const TimelineFile = "timeline.jsonl"

// WriteTimeline persists the timeline as <dir>/timeline.jsonl, in the
// JSONL form a trace file holds.
func (t *FleetTrace) WriteTimeline(dir string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("obs: encode timeline: %w", err)
		}
	}
	return os.WriteFile(filepath.Join(dir, TimelineFile), buf.Bytes(), 0o644)
}

// ReadTimeline decodes a previously written timeline.jsonl strictly; a
// missing file returns (nil, nil) — the timeline is optional.
func ReadTimeline(dir string) ([]FleetEvent, error) {
	data, err := os.ReadFile(filepath.Join(dir, TimelineFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: read timeline: %w", err)
	}
	return DecodeFleetEvents(bytes.NewReader(data))
}
