package dist_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"remapd/internal/checkpoint"
	"remapd/internal/dist"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// TestFleetTelemetryChaosSever is the span-accounting acceptance test.
// One harness timeline serves as both the runner's span stream and the
// fleet's membership trace, as the tools wire it. A chaos-severed cell
// must leave (1) a Fig. 6 table byte-identical to a telemetry-free
// in-process run, (2) a two-attempt lifecycle span whose severed attempt
// is failed with no run segment and whose retry carries the
// worker-reported one, and (3) a timeline — in memory and in the JSONL
// file — that narrates join → requeue → cell-done with attempt numbers,
// attributes the requeue to the severed worker, and folds into the same
// spans from the file as live.
func TestFleetTelemetryChaosSever(t *testing.T) {
	reg := experiments.DefaultRegime()
	scale := func() experiments.Scale {
		s := microScale()
		s.Seeds = []uint64{1}
		s.Epochs = 4 // several log frames per cell, so the cut lands mid-cell
		s.Workers = 1
		return s
	}
	policies := []string{"remap-d"}

	// Baseline: in-process, no telemetry of any kind.
	baseline, err := experiments.Fig6(context.Background(), scale(), reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	var capture logCapture
	store, err := checkpoint.NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "fleet.jsonl")
	trace, err := obs.NewFleetTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	chaos := dist.NewChaos(dist.ChaosConfig{SeverAfter: 3}, capture.logf)
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf, Trace: trace})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := startWorker(ctx, fleet.Addr().String(), dist.DialOptions{
		Worker: dist.WorkerOptions{Checkpoints: store},
		Chaos:  chaos,
		Logf:   capture.logf,
	})

	remote := scale()
	remote.Exec = fleet
	remote.Spans = trace
	remote.Progress = capture.logf
	rows, err := experiments.Fig6(context.Background(), remote, reg, policies)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := experiments.FormatFig6(rows), experiments.FormatFig6(baseline); got != want {
		t.Fatalf("telemetry-on Fig. 6 differs from telemetry-free in-process:\n--- in-process\n%s\n--- fleet\n%s", want, got)
	}

	// Span accounting: one cell, two attempts. The severed attempt's
	// result reply never arrived, so it is failed with no run segment;
	// the retry carries the worker-reported one.
	spans := trace.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1 (grid is a single cell):\n%+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.Outcome != "ok" {
		t.Fatalf("span outcome = %q, want ok: %+v", sp.Outcome, sp)
	}
	if len(sp.Attempts) < 2 {
		t.Fatalf("span has %d attempts, want >= 2 (the sever must cost a requeue): %+v", len(sp.Attempts), sp)
	}
	first, last := sp.Attempts[0], sp.Attempts[len(sp.Attempts)-1]
	if !first.Failed || first.RunSeconds != 0 {
		t.Errorf("severed attempt should be failed with no run segment: %+v", first)
	}
	if last.Failed || last.RunSeconds <= 0 {
		t.Errorf("winning attempt should carry the worker-reported run segment: %+v", last)
	}
	if first.Worker == "" || last.Worker == "" {
		t.Errorf("attempts missing worker attribution: %+v", sp.Attempts)
	}

	// The in-memory timeline must narrate the lifecycle with attempts.
	var sawJoin, sawRequeue, sawDone bool
	var severedWorker string
	for _, ev := range trace.Events() {
		switch ev.Kind {
		case obs.FleetJoin:
			sawJoin = true
			if ev.Worker == "" || ev.Proto == 0 || ev.Slots == 0 {
				t.Errorf("join event missing identity: %+v", ev)
			}
		case obs.FleetRequeue:
			sawRequeue = true
			severedWorker = ev.Worker
			if ev.Attempt != 1 || ev.Cell == "" || ev.Cause == "" {
				t.Errorf("requeue event missing attribution: %+v", ev)
			}
		case obs.FleetDone:
			sawDone = true
			if ev.Attempt < 2 || ev.Cell == "" {
				t.Errorf("cell-done should record the winning attempt (>= 2): %+v", ev)
			}
		}
	}
	if !sawJoin || !sawRequeue || !sawDone {
		t.Fatalf("trace missing lifecycle events (join=%v requeue=%v done=%v):\n%+v",
			sawJoin, sawRequeue, sawDone, trace.Events())
	}

	fleet.Close()
	waitWorker(t, w)

	// The JSONL file must round-trip through the strict decoder, fold
	// into the spans the live stream holds, and summarize with the
	// requeue attributed to the severed worker — exactly what
	// `remapd-metrics -fleet` consumes.
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	events, err := obs.DecodeFleetEvents(f)
	if err != nil {
		t.Fatalf("trace file failed strict decode: %v", err)
	}
	if got, want := obs.FoldSpans(events), trace.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("spans folded from the file differ from the live ones:\n%+v\n%+v", got, want)
	}
	sum := obs.SummarizeFleet(events)
	if sum.Requeues < 1 || sum.CellsDone < 1 {
		t.Fatalf("summary lost the run (%d requeues, %d cells done):\n%+v", sum.Requeues, sum.CellsDone, sum)
	}
	found := false
	for _, ws := range sum.Workers {
		if ws.Worker == severedWorker && ws.Requeues >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary does not attribute a requeue to severed worker %q:\n%+v", severedWorker, sum.Workers)
	}
}

// TestFleetStatusSection: the fleet's /status section must reflect the
// live connections — membership, slots and byte meters — while the
// fleet is live. Completed work is the timeline's to count.
func TestFleetStatusSection(t *testing.T) {
	var capture logCapture
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := startWorker(ctx, fleet.Addr().String(), dist.DialOptions{Logf: capture.logf})

	if _, err := fleet.Execute(context.Background(), 0, specCell("ideal"), nil); err != nil {
		t.Fatal(err)
	}

	stats, ok := fleet.StatusSection().(dist.FleetStats)
	if !ok {
		t.Fatalf("StatusSection returned %T, want dist.FleetStats", fleet.StatusSection())
	}
	if len(stats.Workers) != 1 || stats.Slots != 1 || stats.Inflight != 0 {
		t.Fatalf("fleet stats = %+v, want 1 idle worker with 1 slot", stats)
	}
	ws := stats.Workers[0]
	if ws.Worker == "" || ws.Proto != dist.ProtoVersion || ws.Slots != 1 || ws.LastSeenSeconds < 0 {
		t.Errorf("worker row incomplete: %+v", ws)
	}
	if ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Errorf("byte meters never moved: %+v", ws)
	}

	fleet.Close()
	waitWorker(t, w)
}

// TestFleetCloseRecordsLeaves: once a grid has finished, Close shuts
// the workers down, and each one's disconnect is the exit the
// coordinator asked for — a leave, not a drop — so a clean run
// summarises with no drops.
func TestFleetCloseRecordsLeaves(t *testing.T) {
	trace := obs.NewSpanRecorder()
	fleet := newTestFleet(t, dist.FleetOptions{Trace: trace})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := fleet.Addr().String()
	w1 := startWorker(ctx, addr, dist.DialOptions{})
	w2 := startWorker(ctx, addr, dist.DialOptions{})

	remote := microScale()
	remote.Exec = fleet
	if _, err := experiments.Fig6(context.Background(), remote, experiments.DefaultRegime(), []string{"ideal"}); err != nil {
		t.Fatal(err)
	}
	fleet.Close()
	waitWorker(t, w1)
	waitWorker(t, w2)

	// The coordinator sees each disconnect on its own reader goroutine,
	// shortly after the worker exits.
	gone := func() obs.FleetSummary { return obs.SummarizeFleet(trace.Events()) }
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if sum := gone(); sum.Leaves+sum.Drops >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet recorded no exit for both workers: %+v", trace.Events())
		}
	}
	if sum := gone(); sum.Joins != 2 || sum.Leaves != 2 || sum.Drops != 0 {
		t.Fatalf("clean run summarises as joins %d, leaves %d, drops %d; want 2, 2, 0:\n%+v",
			sum.Joins, sum.Leaves, sum.Drops, trace.Events())
	}
}
