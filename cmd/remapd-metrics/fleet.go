package main

import (
	"fmt"
	"os"

	"remapd/internal/det"
	"remapd/internal/obs"
)

// fleetMain is the -fleet mode: decode a harness timeline (the JSONL a
// -fleet-trace coordinator or worker appends) and print where the run's
// churn came from — membership, requeue causes, per-worker utilization,
// slowest cells.
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
	sum := obs.SummarizeFleet(events)

	fmt.Printf("%d events loaded from %s\n", sum.Events, path)
	fmt.Printf("\n==== fleet membership ====\n\n")
	fmt.Printf("joins %d, graceful leaves %d, drops %d, stalls %d\n",
		sum.Joins, sum.Leaves, sum.Drops, sum.Stalls)

	fmt.Printf("\n==== cells ====\n\n")
	fmt.Printf("completed %d, requeued %d\n", sum.CellsDone, sum.Requeues)
	if len(sum.RequeueCauses) > 0 {
		fmt.Printf("\nrequeue causes:\n")
		// Map iteration order is random; render deterministically.
		for _, cause := range sortedCauses(sum.RequeueCauses) {
			fmt.Printf("  %4d  %s\n", sum.RequeueCauses[cause], cause)
		}
	}

	if len(sum.Workers) > 0 {
		fmt.Printf("\n==== per-worker utilization ====\n\n")
		fmt.Printf("%-20s %6s %9s %12s\n", "worker", "done", "requeues", "busy-sec")
		for _, w := range sum.Workers {
			fmt.Printf("%-20s %6d %9d %12.2f\n", w.Worker, w.Done, w.Requeues, w.BusySeconds)
		}
	}

	printSlowest(obs.SlowestSpans(obs.FoldSpans(events), top))
	return nil
}

// sortedCauses orders requeue causes by count (descending), then text.
func sortedCauses(causes map[string]int) []string {
	out := det.SortedKeys(causes)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if causes[a] > causes[b] || (causes[a] == causes[b] && a < b) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}
