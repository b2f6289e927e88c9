// Command remapd-coordinator drives the Fig. 6 policy grid — the
// canonical distributed workload — in-process or over a worker fleet,
// producing byte-identical tables either way:
//
//	remapd-coordinator -scale quick                 # in-process
//	remapd-coordinator -scale quick -dist 4         # fleet of four local workers
//	remapd-coordinator -scale quick -listen :7433   # elastic TCP fleet
//
// With -listen the coordinator serves a fleet: workers on any machine
// join with
//
//	remapd-coordinator -worker -connect host:7433 -slots 2 \
//	    -checkpoint-dir /shared/ckpt
//
// and may come and go mid-run — a dead or partitioned worker's cells
// are requeued onto survivors (resuming from the shared checkpoint
// directory), a SIGINT'd worker drains gracefully, and the run stalls
// rather than fails if the fleet empties. The chaos-smoke CI job runs
// this binary against fault-injected workers (-chaos-sever-after) and
// diffs the table against the in-process run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"remapd/internal/cli"
	"remapd/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var opts cli.Options
	var (
		scale    = flag.String("scale", "quick", "quick or standard")
		policies = flag.String("policies", "", "comma-separated policy subset (empty = all)")
	)
	opts.Bind(flag.CommandLine)
	opts.BindGrid(flag.CommandLine)
	opts.BindDist(flag.CommandLine)
	opts.BindWorker(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	// Ctrl-C on the coordinator cancels in-flight cells and (via Apply's
	// cleanup) asks every worker to shut down; Ctrl-C on a fleet worker
	// drains it without disturbing the run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.Worker {
		if err := opts.ServeWorker(ctx, log.Printf); err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		return
	}

	if addr, err := opts.StartDebug(); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		fmt.Printf("debug server on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "standard":
		s = experiments.StandardScale()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	prof, cleanup, err := opts.Apply(&s, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	reg := experiments.DefaultRegime()

	var policySubset []string
	for _, p := range strings.Split(*policies, ",") {
		if p = strings.TrimSpace(p); p != "" {
			policySubset = append(policySubset, p)
		}
	}

	//lint:allow no-wall-clock operator-facing run timing; results are computed from seeds only
	start := time.Now()
	fmt.Printf("\n==== Fig. 6 — policy comparison under pre+post faults ====\n\n")
	rows, err := experiments.Fig6(ctx, s, reg, policySubset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatFig6(rows))

	if prof != nil {
		if err := prof.WriteJSON(opts.MetricsDir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntelemetry and harness profile written to %s\n", opts.MetricsDir)
	}
	//lint:allow no-wall-clock operator-facing run timing; results are computed from seeds only
	fmt.Printf("\nfleet run complete in %s (scale=%s)\n", time.Since(start).Round(time.Second), s.Name)
}
