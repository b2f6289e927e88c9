package experiments

import (
	"context"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/dataset"
	"remapd/internal/nn"
	"remapd/internal/obs"
	"remapd/internal/trainer"
)

// TestFig6TelemetryByteIdentical is the determinism proof for the telemetry
// layer: running the same Fig. 6 grid with and without a metrics sink must
// render byte-identical tables. Telemetry is pure observation — it draws no
// randomness and reads no clocks — so any divergence here is a determinism
// bug, not noise.
func TestFig6TelemetryByteIdentical(t *testing.T) {
	s := microScale()
	reg := DefaultRegime()
	policies := []string{"ideal", "none", "remap-d"}

	plain, err := Fig6(context.Background(), s, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sink, err := obs.NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	traced := s
	traced.Metrics = sink
	rows, err := Fig6(context.Background(), traced, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	want, got := FormatFig6(plain), FormatFig6(rows)
	if want != got {
		t.Fatalf("telemetry changed results:\nwithout metrics:\n%s\nwith metrics:\n%s", want, got)
	}

	// Audit path: the figure's swap counts must be reproducible from the
	// recorded events alone — if they aren't, the trace is incomplete.
	cells, err := obs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(s.Models)*len(policies)*len(s.Seeds) {
		t.Fatalf("loaded %d cells, want %d", len(cells), len(s.Models)*len(policies)*len(s.Seeds))
	}
	swapsFromEvents := map[string]int{}
	for _, cm := range cells {
		for _, ev := range cm.Events {
			if rep, ok := ev.(*obs.ReportEvent); ok {
				swapsFromEvents[cm.Model+"/"+cm.Policy] += rep.Swaps
			}
		}
	}
	for _, row := range rows {
		if got := swapsFromEvents[row.Model+"/"+row.Policy]; got != row.Swaps {
			t.Errorf("%s/%s: %d swaps from events, figure says %d",
				row.Model, row.Policy, got, row.Swaps)
		}
	}

	// The aggregated summary must see the same totals through its own path.
	sum := obs.Summarize(cells)
	byPolicy := map[string]int{}
	for _, row := range rows {
		byPolicy[row.Policy] += row.Swaps
	}
	for _, ps := range sum.Policies {
		if ps.Swaps != byPolicy[ps.Policy] {
			t.Errorf("summary policy %s: %d swaps, figure says %d", ps.Policy, ps.Swaps, byPolicy[ps.Policy])
		}
	}
}

// TestFig6SpansByteIdentical is the same determinism proof for the
// operational-telemetry layer: the harness timeline observes the
// harness, never the simulation, so wiring it in must leave the Fig. 6
// table byte-identical — and must record exactly one finished span per
// grid cell.
func TestFig6SpansByteIdentical(t *testing.T) {
	s := microScale()
	reg := DefaultRegime()
	policies := []string{"ideal", "none", "remap-d"}

	plain, err := Fig6(context.Background(), s, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	traced := s
	traced.Spans = obs.NewSpanRecorder()
	rows, err := Fig6(context.Background(), traced, reg, policies)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := FormatFig6(plain), FormatFig6(rows); want != got {
		t.Fatalf("span recording changed results:\nwithout spans:\n%s\nwith spans:\n%s", want, got)
	}

	cells := len(s.Models) * len(policies) * len(s.Seeds)
	spans := traced.Spans.Spans()
	if len(spans) != cells {
		t.Fatalf("recorded %d spans, want one per cell (%d)", len(spans), cells)
	}
	for _, sp := range spans {
		if sp.Outcome != "ok" || len(sp.Attempts) != 1 {
			t.Errorf("in-process span should be one clean attempt: %+v", sp)
		}
		if sp.Attempts[0].RunSeconds <= 0 {
			t.Errorf("in-process attempt missing its run segment: %+v", sp.Attempts[0])
		}
	}
	// The summary /status serves counts every cell done, on no worker.
	sum := obs.SummarizeFleet(traced.Spans.Events())
	if sum.Cells != cells || sum.CellsDone != cells || sum.CellsFailed != 0 || sum.Requeues != 0 || sum.Workers != nil {
		t.Errorf("summary = %+v, want %d clean in-process cells", sum, cells)
	}
}

// TestTrainTelemetryFlushedOnError checks the evidence-preservation
// contract: when a cell fails mid-training, its partial trace is still
// persisted.
func TestTrainTelemetryFlushedOnError(t *testing.T) {
	s := microScale()
	reg := DefaultRegime()
	dir := t.TempDir()
	sink, err := obs.NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Metrics = sink

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the cell dies at its first cancellation check
	key := CellKey{Model: "cnn-s", Policy: "remap-d", Seed: 1}
	ds, net, cfg := microCell(t, s, reg, key)
	cfg.Ctx = ctx
	if _, err := s.train(key, net, ds, cfg); err == nil {
		t.Fatal("cancelled training must fail")
	}
	cells, err := obs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Cell != key.String() {
		t.Fatalf("failed cell's trace not persisted: %+v", cells)
	}
}

// microCell builds the pieces of one policy cell at micro scale, the way
// CellSpec.run does.
func microCell(t *testing.T, s Scale, reg FaultRegime, key CellKey) (*dataset.Dataset, *nn.Network, trainer.Config) {
	t.Helper()
	ds := dataset.CIFAR10Like(s.TrainN, s.TestN, s.ImgSize, 77)
	net, err := BuildModel(key.Model, s, key.Seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	sp := &CellSpec{Kind: "policy", Key: key, Scale: s.ScaleSpec, Regime: reg}
	cfg, p, err := sp.trainConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chip = arch.NewChip(p, s.Geom)
	return ds, net, cfg
}
