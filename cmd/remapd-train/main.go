// Command remapd-train trains one CNN on the simulated faulty RCS with a
// chosen fault-tolerance policy (or the ideal fabric) and prints per-epoch
// progress plus the final summary. It is the workhorse behind the Fig. 5,
// Fig. 6 and Fig. 8 experiments.
//
// Examples:
//
//	remapd-train -model vgg11 -policy remap-d
//	remapd-train -model resnet12 -policy none -dataset cifar100
//	remapd-train -model vgg19 -phase backward        # Fig. 5-style injection
//	remapd-train -model vgg11 -policy remap-d -noc   # with flit-level NoC
//	remapd-train -worker -connect host:7433 -slots 2 # join a TCP fleet
//
// The flags name one experiment cell (experiments.CellSpec), run through
// the same CellSpec.Execute as every cell of the figure grids: the key
// model/policy/seedN/dataset names its checkpoint and telemetry files,
// and the encoded spec is its checkpoint fingerprint, so changing any
// flag that shapes the result invalidates an old snapshot.
//
// With -worker -connect the tool runs the dist protocol instead: it
// dials a fleet coordinator (any grid tool with -listen, e.g.
// remapd-report) over TCP, runs the serialized experiment cells it is
// sent, and writes their results back. The worker advertises -slots
// concurrent cells, answers heartbeats, redials with backoff if the
// connection drops, and drains gracefully on Ctrl-C.
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

	"remapd"
	"remapd/internal/checkpoint"
	"remapd/internal/cli"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

func main() {
	log.SetFlags(0)
	var opts cli.Options
	var (
		model     = flag.String("model", "vgg11", "model: "+strings.Join(remapd.ModelNames(), ", "))
		policy    = flag.String("policy", "remap-d", "policy: "+strings.Join(experiments.PolicyNames(), ", "))
		dsName    = flag.String("dataset", "cifar10", "dataset: cifar10, cifar100, svhn")
		phase     = flag.String("phase", "", "Fig. 5 targeted injection: forward or backward (overrides -policy)")
		epochs    = flag.Int("epochs", 6, "training epochs")
		trainN    = flag.Int("train", 512, "training samples")
		testN     = flag.Int("test", 512, "test samples")
		width     = flag.Float64("width", 0.125, "model width scale")
		simNoC    = flag.Bool("noc", false, "simulate the remap handshake on the flit-level NoC")
		usePaper  = flag.Bool("paper-regime", false, "use the paper's literal fault densities instead of the compressed schedule")
		endurance = flag.Bool("endurance", false, "derive wear-out physically from write counts (Weibull) instead of the phenomenological post model")
	)
	opts.Bind(flag.CommandLine)
	opts.BindRun(flag.CommandLine)
	opts.BindWorker(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	// Ctrl-C stops training at the next batch boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.Worker {
		if err := opts.ServeWorker(ctx, log.Printf); err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		return
	}

	cli.SetGOMAXPROCS(opts.Workers)
	if _, err := opts.StartStatus(log.Printf); err != nil {
		log.Fatal(err)
	}

	s := experiments.StandardScale()
	s.Epochs = *epochs
	s.TrainN, s.TestN = *trainN, *testN
	s.WidthScale = *width
	reg := experiments.DefaultRegime()
	if *usePaper {
		reg = experiments.PaperRegime()
	}
	ds, classes, err := experiments.NamedDataset(*dsName, s.ScaleSpec)
	if err != nil {
		log.Fatal(err)
	}
	sp := &experiments.CellSpec{
		Kind:        "policy",
		Key:         experiments.CellKey{Model: *model, Policy: *policy, Seed: opts.Seed, Extra: *dsName},
		Scale:       s.ScaleSpec,
		Regime:      reg,
		Dataset:     ds,
		Classes:     classes,
		SimulateNoC: *simNoC,
	}
	switch {
	case *phase != "":
		if *phase != "forward" && *phase != "backward" {
			log.Fatalf("-phase must be forward or backward, got %q", *phase)
		}
		sp.Kind, sp.Phase = "phase", *phase
	case *endurance:
		sp.Kind = "endurance"
	}
	fmt.Printf("cell %s (%s): %d train / %d test samples, %d classes\n",
		sp.Key, sp.Kind, ds.Train, ds.Test, classes)
	if sp.Phase != "" {
		fmt.Printf("targeted %s-phase injection at %.1f%% density\n", sp.Phase, 100*reg.PhaseDensity)
	}

	// The final summary below prints regardless of logf, so -quiet can
	// null the progress sink without losing the run's result lines.
	var logf experiments.Logf
	if !opts.Quiet {
		logf = func(f string, a ...interface{}) { fmt.Printf(f+"\n", a...) }
	}
	// The cell key names both the checkpoint and the telemetry files, so
	// a run's metrics sit next to its snapshot.
	var rt experiments.Runtime
	if opts.CheckpointDir != "" {
		if rt.Checkpoints, err = checkpoint.NewStore(opts.CheckpointDir, logf); err != nil {
			log.Fatal(err)
		}
	}
	if opts.MetricsDir != "" {
		if rt.Metrics, err = obs.NewSink(opts.MetricsDir); err != nil {
			log.Fatal(err)
		}
	}

	res, err := sp.Execute(ctx, rt, logf)
	if err != nil {
		log.Fatal(err)
	}
	if rt.Metrics != nil {
		fmt.Printf("telemetry written to %s\n", rt.Metrics.Dir())
	}
	fmt.Printf("\nfinal accuracy %.4f (best %.4f), policy=%s\n", res.FinalTestAcc, res.BestTestAcc, res.Policy)
	// The ideal fabric has no chip, so no faults or remap rounds to report.
	if sp.Phase != "" || *policy != "ideal" {
		fmt.Printf("faults injected: %d (final mean density %.4f%%)\n", res.FaultsInjected, 100*res.FinalMeanDensity)
		fmt.Printf("remap: %d senders, %d swaps, %d unmatched; BIST %d cycles; NoC %d cycles\n",
			res.Senders, res.Swaps, res.Unmatched, res.BISTCyclesTotal, res.NoCCyclesTotal)
	}
	os.Exit(0)
}
