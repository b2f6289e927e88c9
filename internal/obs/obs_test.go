package obs

import (
	"bytes"
	"strings"
	"testing"
)

// allEventKinds returns one fully populated instance of every event
// kind. Every field is non-zero so the round-trip test exercises the
// whole schema (omitempty fields included).
func allEventKinds() []Event {
	return []Event{
		&CellStartEvent{Cell: "vgg11/remap-d/seed3"},
		&EpochEvent{Epoch: 2, Steps: 40, Loss: 1.25, TestAcc: 0.5625, GradNorm: 3.5, UpdateNorm: 0.125, WeightNorm: 12.75, MeanDensity: 0.015625, FaultsInjected: 7},
		&ReportEvent{Epoch: 2, Policy: "remap-d", Senders: 4, Swaps: 3, Unmatched: 1, BISTCycles: 8192, NoCCycles: 640, Protected: 12, MeanDensity: 0.03125},
		&SwapEvent{Epoch: 2, Sender: 17, Receiver: 42, Hops: 5, SenderDensity: 0.09375, ReceiverDensity: 0.0078125},
		&DensityEvent{Epoch: 2, Xbar: 17, Estimate: 0.046875, True: 0.0625},
		&BISTPassEvent{Epoch: 2, Xbar: 17, SA1: 9, SA0: 3, Cycles: 4096, Estimate: 0.046875},
		&WearEvent{Epoch: 2, Xbar: 42, Writes: 1 << 20, NewFaults: 2},
		&NoCRemapEvent{Epoch: 2, Pairs: 3, TotalCycles: 640, FlitHops: 15, Unmatched: 1},
	}
}

// TestEventRoundTrip pins the JSONL schema: encode → decode → re-encode
// must reproduce the original bytes exactly for every event kind. This
// is what makes a persisted trace a stable artifact rather than a
// best-effort log.
func TestEventRoundTrip(t *testing.T) {
	events := allEventKinds()
	if len(events) != len(eventFactories) {
		t.Fatalf("round-trip covers %d kinds but %d are registered", len(events), len(eventFactories))
	}
	var first bytes.Buffer
	if err := EncodeEvents(&first, events); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := DecodeEvents(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	var second bytes.Buffer
	if err := EncodeEvents(&second, decoded); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encode differs from original encode:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
	for i, ev := range decoded {
		if ev.Kind() != events[i].Kind() {
			t.Errorf("event %d decoded as kind %q, want %q", i, ev.Kind(), events[i].Kind())
		}
	}
}

// TestDecodeRejectsUnknownKind checks the schema is closed: a kind, a
// field or trailing bytes this build does not know are an error, not a
// skipped line or a dropped value.
func TestDecodeRejectsUnknownKind(t *testing.T) {
	for name, line := range map[string]string{
		"unknown kind":           `{"kind":"mystery","data":{}}`,
		"malformed line":         `not json`,
		"unknown data field":     `{"kind":"swap","data":{"bogus":1}}`,
		"unknown envelope field": `{"kind":"swap","data":{},"extra":true}`,
		"trailing bytes":         `{"kind":"swap","data":{}} {}`,
		"trailing brace":         `{"kind":"swap","data":{}}}`,
		"missing data":           `{"kind":"swap"}`,
	} {
		if _, err := DecodeEvents(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: %s decoded without error", name, line)
		}
	}
}

// FuzzDecodeEvents: traces are read back from disk, so DecodeEvents must
// survive any input — no panic — and whatever it accepts must reach a
// fixed point: re-encoding and decoding again gives the same bytes.
func FuzzDecodeEvents(f *testing.F) {
	var all bytes.Buffer
	for _, ev := range allEventKinds() {
		line, err := EncodeEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		all.Write(line)
	}
	f.Add(all.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := DecodeEvents(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := EncodeEvents(&first, events); err != nil {
			t.Fatalf("encode accepted events: %v", err)
		}
		again, err := DecodeEvents(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of %q: %v", first.Bytes(), err)
		}
		if err := EncodeEvents(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestHistogramBucketBoundaries pins the inclusive-≤ semantics: an
// observation equal to a bound lands in that bound's bucket, and values
// above the last bound land in the overflow slot.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	cases := []struct {
		v    float64
		slot int
	}{
		{0.5, 0},  // below first bound
		{1, 0},    // exactly on a bound → that bucket
		{1.5, 1},  // between bounds → next bound's bucket
		{2, 1},    // exactly on a bound → that bucket
		{4, 2},    // exactly the last bound is still in-range
		{4.01, 3}, // above every bound → overflow
	}
	for _, c := range cases {
		before := append([]uint64(nil), h.Counts...)
		h.Observe(c.v)
		for i := range h.Counts {
			want := before[i]
			if i == c.slot {
				want++
			}
			if h.Counts[i] != want {
				t.Errorf("Observe(%g): bucket %d count %d, want %d", c.v, i, h.Counts[i], want)
			}
		}
	}
	if h.Count != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", h.Count, len(cases))
	}
}

// TestHistogramMerge covers both the happy path and layout-mismatch
// rejection.
func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(3)
	if err := a.Merge(b); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if a.Count != 3 || a.Counts[0] != 1 || a.Counts[1] != 1 || a.Counts[2] != 1 {
		t.Errorf("merged counts = %v (total %d), want [1 1 1] (3)", a.Counts, a.Count)
	}
	if err := a.Merge(NewHistogram([]float64{1, 3})); err == nil {
		t.Error("merge accepted mismatched bucket bounds")
	}
	if err := a.Merge(NewHistogram([]float64{1})); err == nil {
		t.Error("merge accepted mismatched bucket count")
	}
}

func TestNewHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram accepted descending bounds")
		}
	}()
	NewHistogram([]float64{2, 1})
}

// TestRegistrySnapshot checks snapshot isolation (later writes don't
// leak into an earlier snapshot) and that two identically driven
// registries serialise to identical bytes — the determinism property
// metrics.json relies on.
func TestRegistrySnapshot(t *testing.T) {
	drive := func(r *Registry) {
		r.DeclareHistogram("hops", HopBuckets)
		r.Add("swaps", 3)
		r.Add("swaps", 2)
		r.Set("acc", 0.5625)
		r.Observe("hops", 2)
		r.Observe("undeclared", 0.25)
	}
	r1, r2 := NewRegistry(), NewRegistry()
	drive(r1)
	drive(r2)

	snap := r1.Snapshot()
	r1.Add("swaps", 100)
	r1.Observe("hops", 9)
	if snap.Counters["swaps"] != 5 {
		t.Errorf("snapshot counter mutated: swaps = %d, want 5", snap.Counters["swaps"])
	}
	if snap.Histograms["hops"].Count != 1 {
		t.Errorf("snapshot histogram mutated: count = %d, want 1", snap.Histograms["hops"].Count)
	}

	j1, err := r2.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	j2, err := r2.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("identical registry produced different snapshot JSON")
	}
	if _, err := decodeSnapshot(j1); err != nil {
		t.Errorf("snapshot JSON does not decode strictly: %v", err)
	}
}

// TestSinkReadDirRoundTrip writes two cells through a Sink and loads
// them back through the summarizer's ReadDir, checking the cell-start
// header is stripped and swap accounting survives persistence.
func TestSinkReadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(dir)
	if err != nil {
		t.Fatalf("NewSink: %v", err)
	}
	tr := NewTrace("vgg11/remap-d/seed3")
	tr.Add("remap.swaps", 3)
	tr.Emit(&ReportEvent{Epoch: 0, Policy: "remap-d", Swaps: 2})
	tr.Emit(&ReportEvent{Epoch: 1, Policy: "remap-d", Swaps: 1})
	if err := sink.Write("cell-a", tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	tr2 := NewTrace("vgg11/none/seed3")
	if err := sink.Write("cell-b", tr2); err != nil {
		t.Fatalf("write: %v", err)
	}

	cells, err := ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("loaded %d cells, want 2", len(cells))
	}
	cm := cells[0] // sorted by base: cell-a first
	if cm.Cell != "vgg11/remap-d/seed3" || cm.Model != "vgg11" || cm.Policy != "remap-d" || cm.Seed != 3 {
		t.Errorf("parsed cell = %q (%s/%s/%d), want vgg11/remap-d/seed3", cm.Cell, cm.Model, cm.Policy, cm.Seed)
	}
	if got := cm.SwapTotal(); got != 3 {
		t.Errorf("SwapTotal = %d, want 3", got)
	}
	for _, ev := range cm.Events {
		if _, ok := ev.(*CellStartEvent); ok {
			t.Error("cell-start header leaked into loaded events")
		}
	}
	if cm.Snapshot.Counters["remap.swaps"] != 3 {
		t.Errorf("counter remap.swaps = %d, want 3", cm.Snapshot.Counters["remap.swaps"])
	}

	sum := Summarize(cells)
	if len(sum.Policies) != 2 {
		t.Fatalf("summary has %d policies, want 2", len(sum.Policies))
	}
	var remapD *PolicySummary
	for _, ps := range sum.Policies {
		if ps.Policy == "remap-d" {
			remapD = ps
		}
	}
	if remapD == nil || remapD.Swaps != 3 || remapD.Epochs != 2 {
		t.Fatalf("remap-d summary = %+v, want Swaps=3 Epochs=2", remapD)
	}
	if remapD.SwapsPerEpoch != 1.5 { //lint:allow float-eq 3/2 is exact in binary floating point
		t.Errorf("SwapsPerEpoch = %g, want 1.5", remapD.SwapsPerEpoch)
	}
}

// TestProfileRoundTrip covers the harness-domain profile: phase
// recording and harness.json persistence.
func TestProfileRoundTrip(t *testing.T) {
	p := NewProfile()
	p.StartPhase("fig6")()
	p.StartPhase("fig7")()
	d := p.Data()
	if len(d.Phases) != 2 || d.Phases[0].Name != "fig6" || d.Phases[1].Name != "fig7" {
		t.Fatalf("phases = %+v, want fig6 then fig7", d.Phases)
	}

	dir := t.TempDir()
	if err := p.WriteJSON(dir); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadProfile(dir)
	if err != nil {
		t.Fatalf("ReadProfile: %v", err)
	}
	if back == nil || len(back.Phases) != 2 || back.Phases[1].Name != "fig7" {
		t.Fatalf("ReadProfile = %+v, want the 2 recorded phases", back)
	}
	missing, err := ReadProfile(t.TempDir())
	if err != nil || missing != nil {
		t.Errorf("ReadProfile on empty dir = (%+v, %v), want (nil, nil)", missing, err)
	}
}
