package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"remapd/internal/det"
	"remapd/internal/obs"
)

// fleetMain is the -fleet mode: decode a harness timeline (the JSONL a
// -fleet-trace coordinator or worker appends) and print it.
func fleetMain(path string, top int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	events, err := obs.DecodeFleetEvents(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("no events in %s", path)
	}
	fmt.Printf("%d events loaded from %s\n", len(events), path)
	printTimeline(os.Stdout, events, top)
	return nil
}

// printTimeline is the one timeline printer, shared by -fleet and -dir:
// the obs.SummarizeFleet roll-up of a harness timeline — membership,
// cells, requeue causes, per-worker counts (a run whose events name no
// worker, such as an in-process -j run, has none), the top costliest
// report phases and the top slowest cells.
func printTimeline(w io.Writer, events []obs.FleetEvent, top int) {
	sum := obs.SummarizeFleet(events)
	fmt.Fprintf(w, "\n==== fleet membership ====\n\n")
	fmt.Fprintf(w, "joins %d, graceful leaves %d, drops %d, stalls %d\n",
		sum.Joins, sum.Leaves, sum.Drops, sum.Stalls)

	fmt.Fprintf(w, "\n==== cells ====\n\n")
	fmt.Fprintf(w, "submitted %d, completed %d, failed %d, requeued %d\n",
		sum.Cells, sum.CellsDone, sum.CellsFailed, sum.Requeues)
	fmt.Fprintf(w, "queue %.2fs, wire %.2fs, run %.2fs over %.2fs elapsed\n",
		sum.QueueSeconds, sum.WireSeconds, sum.RunSeconds, sum.ElapsedSeconds)
	if len(sum.RequeueCauses) > 0 {
		fmt.Fprintf(w, "\nrequeue causes:\n")
		// Map iteration order is random; render deterministically.
		for _, cause := range sortedCauses(sum.RequeueCauses) {
			fmt.Fprintf(w, "  %4d  %s\n", sum.RequeueCauses[cause], cause)
		}
	}

	if len(sum.Workers) > 0 {
		fmt.Fprintf(w, "\n==== per-worker utilization ====\n\n")
		fmt.Fprintf(w, "%-20s %6s %6s %9s %12s\n", "worker", "done", "failed", "requeues", "busy-sec")
		for _, ws := range sum.Workers {
			fmt.Fprintf(w, "%-20s %6d %6d %9d %12.2f\n", ws.Worker, ws.Done, ws.Failed, ws.Requeues, ws.BusySeconds)
		}
	}

	printPhases(w, sum.Phases, top)
	printSlowest(w, obs.SlowestSpans(obs.FoldSpans(events), top))
}

// printPhases renders the top costliest report phases: ranked by wall
// seconds, ties in recorded order.
func printPhases(w io.Writer, phases []obs.FleetEvent, top int) {
	if len(phases) == 0 {
		return
	}
	ranked := append([]obs.FleetEvent(nil), phases...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Seconds > ranked[j].Seconds })
	if len(ranked) > top {
		ranked = ranked[:top]
	}
	fmt.Fprintf(w, "\n==== harness phases (wall time, allocations) ====\n\n")
	fmt.Fprintf(w, "%-55s %9s %10s\n", "phase", "seconds", "alloc-mb")
	for _, ph := range ranked {
		fmt.Fprintf(w, "%-55s %9.2f %10.1f\n", ph.Phase, ph.Seconds, float64(ph.AllocBytes)/(1<<20))
	}
}

// printSlowest renders the cells that held a runner slot longest (see
// obs.SlowestSpans), from their lifecycle spans: seconds is the slot
// time (total less queue), run the worker-reported execution time summed
// over attempts.
func printSlowest(w io.Writer, slowest []obs.CellSpanData) {
	if len(slowest) == 0 {
		return
	}
	fmt.Fprintf(w, "\n==== slowest cells ====\n\n")
	fmt.Fprintf(w, "%-55s %9s %9s %9s %8s\n", "cell", "seconds", "queue", "run", "attempts")
	for _, sp := range slowest {
		var run float64
		for _, a := range sp.Attempts {
			run += a.RunSeconds
		}
		fmt.Fprintf(w, "%-55s %9.2f %9.2f %9.2f %8d\n", sp.Cell, sp.SlotSeconds(), sp.QueueSeconds, run, len(sp.Attempts))
	}
}

// sortedCauses orders requeue causes by count (descending), then text.
func sortedCauses(causes map[string]int) []string {
	out := det.SortedKeys(causes)
	sort.SliceStable(out, func(i, j int) bool { return causes[out[i]] > causes[out[j]] })
	return out
}
