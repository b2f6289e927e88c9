// Command remapd-metrics summarises a telemetry directory written by
// remapd-train or remapd-report (-metrics-dir): per-policy remap activity,
// the remap hop-distance histogram, the BIST density-drift curve, and —
// when the directory also holds them — the costliest report phases from
// harness.json and the slowest experiment cells from spans.json.
//
// Two operational modes look at a live or finished fleet run instead:
// -fleet summarises a structured fleet event trace (-fleet-trace JSONL)
// and -watch polls a coordinator's -status-addr for a live view.
//
// Examples:
//
//	remapd-metrics -dir metrics
//	remapd-metrics -dir metrics -top 5
//	remapd-metrics -fleet fleet-trace.jsonl
//	remapd-metrics -watch localhost:7434
package main

import (
	"flag"
	"fmt"
	"log"

	"remapd/internal/obs"
)

func main() {
	log.SetFlags(0)
	var (
		dir   = flag.String("dir", "metrics", "telemetry directory (the -metrics-dir of a previous run)")
		top   = flag.Int("top", 10, "how many slowest cells / costliest phases to show")
		fleet = flag.String("fleet", "", "summarise this structured fleet event trace (a -fleet-trace JSONL file) instead of a metrics directory")
		watch = flag.String("watch", "", "poll a coordinator's -status-addr (host:port) and render a live single-screen view")
		every = flag.Duration("every", defaultWatchEvery, "with -watch: poll interval")
	)
	flag.Parse()

	if *fleet != "" {
		if err := fleetMain(*fleet, *top); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *watch != "" {
		if err := watchMain(*watch, *every); err != nil {
			log.Fatal(err)
		}
		return
	}

	cells, err := obs.ReadDir(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if len(cells) == 0 {
		log.Fatalf("no cell telemetry (*.metrics.json) found in %s", *dir)
	}
	sum := obs.Summarize(cells)

	fmt.Printf("%d cells loaded from %s\n", len(cells), *dir)

	fmt.Printf("\n==== per-policy remap activity ====\n\n")
	fmt.Printf("%-10s %5s %6s %7s %6s %9s %9s %10s %9s\n",
		"policy", "cells", "epochs", "senders", "swaps", "unmatched", "protected", "swaps/ep", "mean-acc")
	for _, ps := range sum.Policies {
		fmt.Printf("%-10s %5d %6d %7d %6d %9d %9d %10.2f %9.3f\n",
			ps.Policy, ps.Cells, ps.Epochs, ps.Senders, ps.Swaps,
			ps.Unmatched, ps.Protected, ps.SwapsPerEpoch, ps.MeanFinalAcc)
	}

	fmt.Printf("\n==== remap hop distance (all policies) ====\n\n")
	printHops(sum)

	printServe(cells)

	if len(sum.Drift) > 0 {
		fmt.Printf("\n==== BIST density drift (estimate vs truth) ====\n\n")
		fmt.Printf("%5s %8s %10s %10s %10s\n", "epoch", "samples", "mean-est", "mean-true", "mean|err|")
		for _, d := range sum.Drift {
			fmt.Printf("%5d %8d %9.4f%% %9.4f%% %9.4f%%\n",
				d.Epoch, d.Samples, 100*d.MeanEstimate, 100*d.MeanTrue, 100*d.MeanAbsErr)
		}
	}

	prof, err := obs.ReadProfile(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if prof != nil {
		printPhases(prof, *top)
	}
	spans, err := obs.ReadSpans(*dir)
	if err != nil {
		log.Fatal(err)
	}
	printSlowest(spans, *top)
}

// printHops merges every policy's hop histogram and renders the combined
// distribution; policies without swaps contribute nothing.
func printHops(sum *obs.Summary) {
	var merged *obs.Histogram
	for _, ps := range sum.Policies {
		if ps.Hops == nil || ps.Hops.Count == 0 {
			continue
		}
		if merged == nil {
			merged = obs.NewHistogram(ps.Hops.Buckets)
		}
		if err := merged.Merge(ps.Hops); err != nil {
			log.Fatal(err)
		}
	}
	if merged == nil {
		fmt.Println("no swaps recorded")
		return
	}
	fmt.Printf("%9s %6s\n", "hops", "swaps")
	prev := ""
	for i, b := range merged.Buckets {
		if merged.Counts[i] > 0 {
			fmt.Printf("%4s<=%3g %6d\n", prev, b, merged.Counts[i])
		}
		prev = fmt.Sprintf("%g", b)
	}
	if over := merged.Counts[len(merged.Buckets)]; over > 0 {
		fmt.Printf("%5s>%3s %6d\n", "", prev, over)
	}
	fmt.Printf("total %d swaps, mean %.2f hops\n", merged.Count, merged.Sum/float64(merged.Count))
}

// printServe renders the serving-domain SLO section for cells written by
// remapd-serve (identified by their serve.* counters): throughput, tail
// latency in simulated ticks, accuracy against wear, and the online
// maintenance activity.
func printServe(cells []*obs.CellMetrics) {
	var serving []*obs.CellMetrics
	for _, c := range cells {
		if c.Snapshot != nil && c.Snapshot.Counters["serve.requests"] > 0 {
			serving = append(serving, c)
		}
	}
	if len(serving) == 0 {
		return
	}
	fmt.Printf("\n==== serving SLO (remapd-serve cells) ====\n\n")
	fmt.Printf("%-40s %8s %7s %9s %8s %9s %6s %7s %6s %7s\n",
		"cell", "requests", "batches", "p99-ticks", "accuracy", "density-%", "scans", "rounds", "swaps", "wfaults")
	for _, c := range serving {
		cnt, g := c.Snapshot.Counters, c.Snapshot.Gauges
		p99 := g["serve.latency.p99_ticks"]
		if h := c.Snapshot.Histograms["serve.latency.ticks"]; h != nil && h.Count > 0 {
			p99 = h.Quantile(0.99)
		}
		fmt.Printf("%-40s %8d %7d %9.0f %8.4f %9.4f %6d %7d %6d %7d\n",
			c.Cell, cnt["serve.requests"], cnt["serve.batches"], p99,
			g["serve.accuracy.total"], 100*g["serve.wear.mean_density"],
			cnt["serve.bist.scans"], cnt["serve.maintain.rounds"],
			cnt["serve.remap.swaps"], cnt["serve.wear.faults"])
	}
}

// printPhases renders the harness profile's costliest phases in
// recorded order.
func printPhases(prof *obs.ProfileData, top int) {
	if len(prof.Phases) == 0 {
		return
	}
	fmt.Printf("\n==== harness phases (wall time, allocations) ====\n\n")
	fmt.Printf("%-55s %9s %10s\n", "phase", "seconds", "alloc-mb")
	n := len(prof.Phases)
	if n > top {
		n = top
	}
	for _, ph := range prof.Phases[:n] {
		fmt.Printf("%-55s %9.2f %10.1f\n", ph.Name, ph.Seconds, float64(ph.AllocBytes)/(1<<20))
	}
}

// printSlowest renders the cells that held a runner slot longest, from
// their lifecycle spans: seconds is the slot time (total less queue),
// run the worker-reported execution time summed over attempts.
func printSlowest(spans []obs.CellSpanData, top int) {
	if len(spans) == 0 {
		return
	}
	fmt.Printf("\n==== slowest cells ====\n\n")
	fmt.Printf("%-55s %9s %9s %9s %8s\n", "cell", "seconds", "queue", "run", "attempts")
	for _, sp := range obs.SlowestSpans(spans, top) {
		var run float64
		for _, a := range sp.Attempts {
			run += a.RunSeconds
		}
		fmt.Printf("%-55s %9.2f %9.2f %9.2f %8d\n", sp.Cell, sp.SlotSeconds(), sp.QueueSeconds, run, len(sp.Attempts))
	}
}
