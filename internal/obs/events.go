package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is the obs wire schema version: the JSONL event envelope
// plus the metrics snapshot field sets. Tools that parse recorded traces
// key off it; the wire-stability lint rule pins the full tagged field
// set to a golden and requires a bump here when it changes.
//
// v2 added the operational telemetry surface: cell lifecycle spans
// (spans.json), the fleet event trace (fleet JSONL), and the /status
// document types.
//
// v3 dropped the per-cell entries from the harness profile: a cell's
// wall time is its span.
//
// v4 made the fleet event trace the one harness timeline: cell lifecycle
// kinds (submit, schedule, dispatch, run, cell-failed, cancel) joined
// it, spans fold out of it (spans.json is gone; a metrics directory
// keeps timeline.jsonl), and FleetSummary lost its slowest cells.
//
// v5 made the timeline the harness's only record: report phases are
// phase events (FleetEvent.Phase, AllocBytes; the harness profile and
// its file are gone), FleetSummary is the one roll-up (cells
// submitted and failed, queue/wire/run totals, the slowest cells,
// phases, per-worker failures), and the runner's grid section and the
// span aggregate left /status.
const SchemaVersion = 5

// Event is one structured trace record. Every event is keyed by simulated
// coordinates only (epoch, crossbar id, tile id — never wall-clock
// time), so a trace replays bit-identically with the run that produced
// it. Concrete events are plain structs; their JSON field order is the
// struct declaration order, which makes encode → decode → re-encode an
// exact identity (the schema round-trip test pins this).
type Event interface {
	// Kind returns the event's stable schema name (the JSONL envelope
	// discriminator).
	Kind() string
}

// CellStartEvent heads every events.jsonl file and names the cell the
// trace belongs to.
type CellStartEvent struct {
	Cell string `json:"cell"`
}

// Kind implements Event.
func (*CellStartEvent) Kind() string { return "cell-start" }

// EpochEvent summarises one training epoch: loss/accuracy and the
// gradient, weight-update and weight norms the paper's drift arguments
// are about. Norms are Frobenius over all parameters; GradNorm
// aggregates every optimizer step of the epoch.
type EpochEvent struct {
	Epoch          int     `json:"epoch"`
	Steps          int     `json:"steps"`
	Loss           float64 `json:"loss"`
	TestAcc        float64 `json:"test_acc"`
	GradNorm       float64 `json:"grad_norm"`
	UpdateNorm     float64 `json:"update_norm"`
	WeightNorm     float64 `json:"weight_norm"`
	MeanDensity    float64 `json:"mean_density,omitempty"`
	FaultsInjected int     `json:"faults_injected,omitempty"`
}

// Kind implements Event.
func (*EpochEvent) Kind() string { return "epoch" }

// ReportEvent records the policy's remap.Report at one epoch boundary —
// the authoritative per-epoch swap/sender/protection accounting (summing
// ReportEvent.Swaps over a trace reproduces the trainer's Result.Swaps).
type ReportEvent struct {
	Epoch       int     `json:"epoch"`
	Policy      string  `json:"policy"`
	Senders     int     `json:"senders"`
	Swaps       int     `json:"swaps"`
	Unmatched   int     `json:"unmatched"`
	BISTCycles  int     `json:"bist_cycles"`
	NoCCycles   int     `json:"noc_cycles"`
	Protected   int     `json:"protected"`
	MeanDensity float64 `json:"mean_density"`
}

// Kind implements Event.
func (*ReportEvent) Kind() string { return "epoch-report" }

// SwapEvent is one Remap-D task exchange: sender and receiver crossbar
// ids, their tile hop distance, and the densities that triggered the
// swap.
type SwapEvent struct {
	Epoch           int     `json:"epoch"`
	Sender          int     `json:"sender"`
	Receiver        int     `json:"receiver"`
	Hops            int     `json:"hops"`
	SenderDensity   float64 `json:"sender_density"`
	ReceiverDensity float64 `json:"receiver_density"`
}

// Kind implements Event.
func (*SwapEvent) Kind() string { return "swap" }

// DensityEvent pairs the remap trigger's density estimate with the
// ground truth for one crossbar at one epoch boundary — the BIST
// fidelity signal (paper Fig. 4's system-level consequence).
type DensityEvent struct {
	Epoch    int     `json:"epoch"`
	Xbar     int     `json:"xbar"`
	Estimate float64 `json:"estimate"`
	True     float64 `json:"true"`
}

// Kind implements Event.
func (*DensityEvent) Kind() string { return "density" }

// BISTPassEvent records one completed BIST FSM pass.
type BISTPassEvent struct {
	Epoch    int     `json:"epoch"`
	Xbar     int     `json:"xbar"`
	SA1      int     `json:"sa1"`
	SA0      int     `json:"sa0"`
	Cycles   int     `json:"cycles"`
	Estimate float64 `json:"estimate"`
}

// Kind implements Event.
func (*BISTPassEvent) Kind() string { return "bist-pass" }

// WearEvent records endurance-driven fault materialisation on one
// crossbar: the write watermark that triggered it and how many new
// stuck-at faults appeared.
type WearEvent struct {
	Epoch     int    `json:"epoch"`
	Xbar      int    `json:"xbar"`
	Writes    uint64 `json:"writes"`
	NewFaults int    `json:"new_faults"`
}

// Kind implements Event.
func (*WearEvent) Kind() string { return "wear" }

// NoCRemapEvent summarises one flit-level remap handshake round.
type NoCRemapEvent struct {
	Epoch       int `json:"epoch"`
	Pairs       int `json:"pairs"`
	TotalCycles int `json:"total_cycles"`
	FlitHops    int `json:"flit_hops"`
	Unmatched   int `json:"unmatched"`
}

// Kind implements Event.
func (*NoCRemapEvent) Kind() string { return "noc-remap" }

// eventFactories maps each kind to a fresh-instance constructor; Decode
// uses it to rebuild typed events from the envelope discriminator.
var eventFactories = map[string]func() Event{
	(*CellStartEvent)(nil).Kind(): func() Event { return &CellStartEvent{} },
	(*EpochEvent)(nil).Kind():     func() Event { return &EpochEvent{} },
	(*ReportEvent)(nil).Kind():    func() Event { return &ReportEvent{} },
	(*SwapEvent)(nil).Kind():      func() Event { return &SwapEvent{} },
	(*DensityEvent)(nil).Kind():   func() Event { return &DensityEvent{} },
	(*BISTPassEvent)(nil).Kind():  func() Event { return &BISTPassEvent{} },
	(*WearEvent)(nil).Kind():      func() Event { return &WearEvent{} },
	(*NoCRemapEvent)(nil).Kind():  func() Event { return &NoCRemapEvent{} },
}

// envelope is the JSONL line format: {"kind":"swap","data":{...}}.
type envelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// EncodeEvent renders one event as a single JSONL line (with trailing
// newline).
func EncodeEvent(ev Event) ([]byte, error) {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("obs: encode %s event: %w", ev.Kind(), err)
	}
	line, err := json.Marshal(envelope{Kind: ev.Kind(), Data: data})
	if err != nil {
		return nil, fmt.Errorf("obs: encode %s envelope: %w", ev.Kind(), err)
	}
	return append(line, '\n'), nil
}

// EncodeEvents writes events as JSONL.
func EncodeEvents(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		line, err := EncodeEvent(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeEvents reads a JSONL event stream back into typed events. An
// unknown kind, an unknown field in the envelope or the event, trailing
// bytes after either, or a malformed line is an error — the schema is
// closed, so silence would hide producer/consumer drift.
func DecodeEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env envelope
		if err := DecodeStrict(line, &env); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", lineNo, err)
		}
		mk := eventFactories[env.Kind]
		if mk == nil {
			return nil, fmt.Errorf("obs: events line %d: unknown event kind %q", lineNo, env.Kind)
		}
		ev := mk()
		if err := DecodeStrict(env.Data, ev); err != nil {
			return nil, fmt.Errorf("obs: events line %d (%s): %w", lineNo, env.Kind, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scan events: %w", err)
	}
	return out, nil
}

// DecodeStrict unmarshals one JSON value into v, rejecting unknown fields
// and anything after the value: input from outside the process that does
// not match the schema exactly is an error, not something to skip.
func DecodeStrict(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
