package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// This file is the HARNESS domain: cell lifecycle spans. A span covers
// one cell's trip through the experiment runner — submit → schedule →
// dispatch → run → result (or requeue and dispatch again) — and
// attributes its wall time to queueing, wire overhead, and execution,
// per attempt. The run segment is reported by the worker that executed
// the cell (over the dist protocol's telemetry frame for remote cells;
// measured directly for in-process ones); everything else is measured
// coordinator-side. Like the rest of the harness domain, spans describe
// the machine, never the simulation: recording them cannot change cell
// results, which the span byte-identity tests pin.

// SpanAttempt is one dispatch of a cell onto a worker. DispatchSeconds
// is the offset from the cell's submission; WireSeconds is the
// dispatch→outcome wall time not accounted to execution (protocol
// framing, network transit, scheduling slack). A requeued attempt is
// Failed; RunSeconds is zero when the worker died before its telemetry
// frame could arrive.
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

// CellSpan is the mutable builder executors mark segments on. Every
// method is safe on a nil receiver, so the runner hands cells a nil span
// when recording is off and no call site needs a guard. The runner opens
// the span at submission; Schedule/Dispatch/RunSegment/EndAttempt/Finish
// mark the lifecycle edges.
type CellSpan struct {
	rec *SpanRecorder

	mu        sync.Mutex
	data      CellSpanData
	submit    time.Time
	scheduled bool
	dispatch  time.Time
	open      bool // an attempt is open (Dispatch seen, EndAttempt not yet)
	run       float64
	runFailed bool
	finished  bool
}

// Schedule marks the runner dequeueing the cell onto a worker slot; the
// submit→schedule gap is the cell's queue time. First call wins.
func (s *CellSpan) Schedule() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.scheduled {
		s.scheduled = true
		//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
		s.data.QueueSeconds = time.Since(s.submit).Seconds()
	}
	s.mu.Unlock()
}

// Dispatch marks the cell being handed to a worker, opening a new
// attempt. Executors call it once per attempt, before sending the cell.
func (s *CellSpan) Dispatch(worker string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.scheduled {
		s.scheduled = true
		//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
		s.data.QueueSeconds = time.Since(s.submit).Seconds()
	}
	//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
	s.dispatch = time.Now()
	s.open = true
	s.run = 0
	s.runFailed = false
	s.data.Attempts = append(s.data.Attempts, SpanAttempt{
		Attempt:         len(s.data.Attempts) + 1,
		Worker:          worker,
		DispatchSeconds: s.dispatch.Sub(s.submit).Seconds(),
	})
	s.mu.Unlock()
}

// RunSegment records the worker-reported execution wall time for the
// open attempt (the dist telemetry frame, or the in-process executor's
// own measurement). failed mirrors the worker's view of the cell.
func (s *CellSpan) RunSegment(seconds float64, failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.open {
		s.run = seconds
		s.runFailed = failed
	}
	s.mu.Unlock()
}

// EndAttempt closes the open attempt: wire time is the dispatch→now wall
// time minus the reported run segment. failed means the attempt did not
// produce the cell's result (requeue or final failure).
func (s *CellSpan) EndAttempt(failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.open {
		s.open = false
		a := &s.data.Attempts[len(s.data.Attempts)-1]
		a.RunSeconds = s.run
		//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
		wire := time.Since(s.dispatch).Seconds() - s.run
		if wire < 0 {
			wire = 0
		}
		a.WireSeconds = wire
		a.Failed = failed || s.runFailed
	}
	s.mu.Unlock()
}

// Finish seals the span with its outcome ("ok", "failed", "cancelled")
// and hands it to the recorder. Idempotent; later calls are ignored.
func (s *CellSpan) Finish(outcome string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	if s.open {
		// The executor abandoned the attempt (cancellation): close it as
		// failed so the span still accounts the time.
		s.open = false
		a := &s.data.Attempts[len(s.data.Attempts)-1]
		a.RunSeconds = s.run
		//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
		if wire := time.Since(s.dispatch).Seconds() - s.run; wire > 0 {
			a.WireSeconds = wire
		}
		a.Failed = true
	}
	s.data.Outcome = outcome
	//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
	s.data.TotalSeconds = time.Since(s.submit).Seconds()
	data := s.data
	rec := s.rec
	s.mu.Unlock()
	if rec != nil {
		rec.record(data)
	}
}

// SpanRecorder collects finished cell spans. Shared by concurrent runner
// workers; completion order is scheduling-dependent, which is fine in
// the harness domain — readers sort.
type SpanRecorder struct {
	mu    sync.Mutex
	spans []CellSpanData
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{} }

// Begin opens a span for the named cell, stamped at submission. A nil
// recorder returns a nil span, on which every method is a no-op.
func (r *SpanRecorder) Begin(cell string) *CellSpan {
	if r == nil {
		return nil
	}
	return &CellSpan{
		rec: r,
		//lint:allow no-wall-clock harness-domain span timing measures the machine, never the simulation
		submit: time.Now(),
		data:   CellSpanData{Cell: cell},
	}
}

func (r *SpanRecorder) record(d CellSpanData) {
	r.mu.Lock()
	r.spans = append(r.spans, d)
	r.mu.Unlock()
}

// Spans snapshots the finished spans, sorted by cell key so output is
// stable across scheduling orders.
func (r *SpanRecorder) Spans() []CellSpanData {
	r.mu.Lock()
	out := append([]CellSpanData(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out
}

// SpanAggregate is the roll-up the /status endpoint serves: where the
// grid's wall time went, and which cells held a slot longest.
type SpanAggregate struct {
	Cells            int            `json:"cells"`
	Attempts         int            `json:"attempts"`
	Requeues         int            `json:"requeues"`
	QueueSeconds     float64        `json:"queue_seconds"`
	WireSeconds      float64        `json:"wire_seconds"`
	RunSeconds       float64        `json:"run_seconds"`
	TotalSeconds     float64        `json:"total_seconds"`
	MeanQueueSeconds float64        `json:"mean_queue_seconds"`
	MeanRunSeconds   float64        `json:"mean_run_seconds"`
	Slowest          []CellSpanData `json:"slowest,omitempty"`
}

// slowestSpans caps how many full spans the aggregate carries.
const slowestSpans = 5

// Aggregate rolls the recorded spans up. Safe on a nil recorder (zero
// aggregate).
func (r *SpanRecorder) Aggregate() SpanAggregate {
	if r == nil {
		return SpanAggregate{}
	}
	spans := r.Spans()
	agg := SpanAggregate{Cells: len(spans)}
	for _, sp := range spans {
		agg.QueueSeconds += sp.QueueSeconds
		agg.TotalSeconds += sp.TotalSeconds
		agg.Attempts += len(sp.Attempts)
		for _, a := range sp.Attempts {
			agg.WireSeconds += a.WireSeconds
			agg.RunSeconds += a.RunSeconds
			if a.Failed {
				agg.Requeues++
			}
		}
	}
	if agg.Cells > 0 {
		agg.MeanQueueSeconds = agg.QueueSeconds / float64(agg.Cells)
		agg.MeanRunSeconds = agg.RunSeconds / float64(agg.Cells)
	}
	agg.Slowest = SlowestSpans(spans, slowestSpans)
	return agg
}

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

// spansFile names the span payload inside a metrics directory.
const spansFile = "spans.json"

// WriteJSON persists the spans as <dir>/spans.json.
func (r *SpanRecorder) WriteJSON(dir string) error {
	data, err := json.MarshalIndent(r.Spans(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, spansFile), append(data, '\n'), 0o644)
}

// ReadSpans loads a previously written spans.json; a missing file
// returns (nil, nil) — span recording is optional.
func ReadSpans(dir string) ([]CellSpanData, error) {
	data, err := os.ReadFile(filepath.Join(dir, spansFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: read spans: %w", err)
	}
	return decodeSpans(data)
}

// decodeSpans parses a spans.json payload strictly: an unknown field or
// anything after the array is an error.
func decodeSpans(data []byte) ([]CellSpanData, error) {
	var spans []CellSpanData
	if err := DecodeStrict(data, &spans); err != nil {
		return nil, fmt.Errorf("obs: parse spans: %w", err)
	}
	return spans, nil
}
