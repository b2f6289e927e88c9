package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// Sink persists per-cell traces into a metrics directory: one
// <base>.metrics.json (the registry snapshot) and one <base>.events.jsonl
// (the event log, headed by a cell-start line) per cell. base is the same
// filesystem-safe name the checkpoint store derives for the cell, so a
// cell's telemetry sits next to its checkpoint.
type Sink struct {
	dir string
}

// NewSink creates (if necessary) the metrics directory.
func NewSink(dir string) (*Sink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: create metrics dir: %w", err)
	}
	return &Sink{dir: dir}, nil
}

// Dir returns the sink's directory.
func (s *Sink) Dir() string { return s.dir }

// metricsSuffix and eventsSuffix name the two per-cell files.
const (
	metricsSuffix = ".metrics.json"
	eventsSuffix  = ".events.jsonl"
)

// writeMetrics snapshots the trace's registry into <base>.metrics.json.
func (s *Sink) writeMetrics(base string, t *Trace) error {
	snap := t.Registry().Snapshot()
	snap.Cell = t.Cell()
	data, err := snap.MarshalIndentJSON()
	if err != nil {
		return fmt.Errorf("obs: marshal metrics for %s: %w", t.Cell(), err)
	}
	if err := os.WriteFile(filepath.Join(s.dir, base+metricsSuffix), data, 0o644); err != nil {
		return fmt.Errorf("obs: write metrics for %s: %w", t.Cell(), err)
	}
	return nil
}

// Flusher is implemented by recorders that can persist their
// accumulated state mid-run. The trainer flushes after every epoch
// boundary, so a crashed run's trace is truncated at the last epoch
// rather than lost.
type Flusher interface {
	Flush() error
}

// StreamTrace is a Trace whose events stream to disk incrementally
// instead of buffering for the cell's whole lifetime: each Flush appends
// the events emitted since the previous flush to <base>.events.jsonl and
// rewrites the <base>.metrics.json snapshot. The final on-disk bytes are
// those of the whole trace written in one go — streaming only changes
// when they are written (and bounds the trace's memory, since flushed
// events are released). Not safe for concurrent Flush/Close calls; the
// trainer calls both from its single epoch loop.
type StreamTrace struct {
	*Trace
	sink   *Sink
	base   string
	f      *os.File
	closed bool
}

// Stream opens a streaming trace for the cell: the events file is created
// (truncating any previous run's) and headed with the cell-start line
// immediately, so even a cell that dies in epoch 0 leaves a valid,
// attributable event log.
func (s *Sink) Stream(base, cell string) (*StreamTrace, error) {
	f, err := os.Create(filepath.Join(s.dir, base+eventsSuffix))
	if err != nil {
		return nil, fmt.Errorf("obs: create events stream for %s: %w", cell, err)
	}
	line, err := EncodeEvent(&CellStartEvent{Cell: cell})
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Write(line); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("obs: write events for %s: %w", cell, err)
	}
	return &StreamTrace{Trace: NewTrace(cell), sink: s, base: base, f: f}, nil
}

// Flush implements Flusher: append the pending events and refresh the
// metrics snapshot. Flushed events are dropped from memory — the file is
// now the record — which is the bounded-memory point of streaming.
func (st *StreamTrace) Flush() error {
	for _, ev := range st.Trace.takeEvents() {
		line, err := EncodeEvent(ev)
		if err != nil {
			return err
		}
		if _, err := st.f.Write(line); err != nil {
			return fmt.Errorf("obs: write events for %s: %w", st.Cell(), err)
		}
	}
	return st.sink.writeMetrics(st.base, st.Trace)
}

// Close flushes whatever remains and closes the events file. Idempotent;
// callers must Close even when the cell failed — the partial trace is
// evidence.
func (st *StreamTrace) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	ferr := st.Flush()
	cerr := st.f.Close()
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return fmt.Errorf("obs: close events for %s: %w", st.Cell(), cerr)
	}
	return nil
}

var _ Recorder = (*StreamTrace)(nil)
var _ Flusher = (*StreamTrace)(nil)
