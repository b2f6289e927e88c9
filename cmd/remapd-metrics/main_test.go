package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"remapd/internal/cli"
	"remapd/internal/dist"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// TestStatusTimelineContract builds the /status registry and the harness
// timeline through cli.Options, as the grid tools do, records one cell's
// lifecycle and one report phase, and checks that the served document
// decodes into statusDoc and that both the live view and the shared
// timeline printer show the counts and the phase.
func TestStatusTimelineContract(t *testing.T) {
	opts := cli.Options{StatusAddr: "127.0.0.1:0"}
	st, err := opts.StartStatus(nil)
	if err != nil {
		t.Fatal(err)
	}
	var s experiments.Scale
	trace, cleanup, err := opts.Apply(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	const cell, worker = "cnn-s/remap-d/seed1", "fw1/pid7"
	stop := trace.StartPhase("Fig. 6 — policy comparison")
	trace.Emit(obs.FleetEvent{Kind: obs.FleetSubmit, Cell: cell})
	trace.Emit(obs.FleetEvent{Kind: obs.FleetDispatch, Cell: cell, Worker: worker, Attempt: 1})
	trace.Emit(obs.FleetEvent{Kind: obs.FleetRun, Cell: cell, Seconds: 0.25})
	trace.Emit(obs.FleetEvent{Kind: obs.FleetDone, Cell: cell, Worker: worker, Attempt: 1})
	stop()

	rec := httptest.NewRecorder()
	st.ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	var doc statusDoc
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Timeline == nil || doc.Timeline.Cells != 1 || doc.Timeline.CellsDone != 1 || len(doc.Timeline.Phases) != 1 {
		t.Fatalf("served timeline = %+v, want 1 cell done and 1 phase", doc.Timeline)
	}
	if doc.Fleet != nil {
		t.Fatalf("in-process run served a fleet section: %+v", doc.Fleet)
	}

	// A live fleet row joins its counts by worker name.
	doc.Fleet = &dist.FleetStats{Slots: 1, Workers: []dist.WorkerStats{{Worker: worker, Proto: dist.ProtoVersion, Slots: 1}}}
	var live bytes.Buffer
	renderStatus(&live, &doc, 10)
	out := live.String()
	for _, want := range []string{"timeline: 1/1 cells (100%), 0 failed", "Fig. 6 — policy comparison", cell} {
		if !strings.Contains(out, want) {
			t.Errorf("live view lacks %q:\n%s", want, out)
		}
	}
	if row := findRow(out, worker); len(row) < 6 || row[3] != "1" || row[4] != "0" || row[5] != "0" {
		t.Errorf("live row %q, want done 1, failed 0, requeued 0:\n%s", row, out)
	}

	var printed bytes.Buffer
	printTimeline(&printed, trace.Events(), 10)
	out = printed.String()
	for _, want := range []string{"submitted 1, completed 1, failed 0, requeued 0", "==== harness phases", "Fig. 6 — policy comparison", "==== slowest cells ===="} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline printout lacks %q:\n%s", want, out)
		}
	}
	if row := findRow(out, worker); len(row) < 4 || row[1] != "1" || row[2] != "0" || row[3] != "0" {
		t.Errorf("worker row %q, want done 1, failed 0, requeues 0:\n%s", row, out)
	}
}

// TestPrintTimelineSkipsNamelessWorkers: an in-process run names no
// workers, so its printout has no per-worker table.
func TestPrintTimelineSkipsNamelessWorkers(t *testing.T) {
	events := []obs.FleetEvent{
		{Kind: obs.FleetSubmit, Cell: "a"},
		{Kind: obs.FleetDispatch, Cell: "a", Attempt: 1},
		{Kind: obs.FleetDone, Cell: "a", Attempt: 1},
	}
	var buf bytes.Buffer
	printTimeline(&buf, events, 10)
	if out := buf.String(); strings.Contains(out, "per-worker") || strings.Contains(out, "(unknown)") {
		t.Errorf("in-process timeline printed a worker table:\n%s", out)
	}
}

// TestPrintPhasesRanksByCost: with more phases than -top, the costliest
// ones show, slowest first and ties in recorded order — not the first
// -top phases recorded.
func TestPrintPhasesRanksByCost(t *testing.T) {
	var phases []obs.FleetEvent
	for i, secs := range []float64{1, 5, 3, 5, 2} {
		phases = append(phases, obs.FleetEvent{Kind: obs.FleetPhase, Phase: "p" + string(rune('0'+i)), Seconds: secs})
	}
	var buf bytes.Buffer
	printPhases(&buf, phases, 3)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(f[0], "p") && f[0] != "phase" {
			got = append(got, f[0])
		}
	}
	if want := "p1 p3 p2"; strings.Join(got, " ") != want {
		t.Fatalf("phases shown = %v, want %s:\n%s", got, want, buf.String())
	}
}

// findRow returns the whitespace-split fields of the first line of out
// that starts with name.
func findRow(out, name string) []string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.Fields(line)
		}
	}
	return nil
}
