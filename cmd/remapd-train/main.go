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
// With -worker -connect the tool runs the dist protocol instead: it
// dials a fleet coordinator (remapd-coordinator -listen, or any grid
// tool with -listen) over TCP, runs the serialized experiment cells it
// is sent, and writes their results back. The worker advertises -slots
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

	"remapd/internal/arch"
	"remapd/internal/checkpoint"
	"remapd/internal/cli"
	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/fault"
	"remapd/internal/models"
	"remapd/internal/obs"
	"remapd/internal/trainer"
)

func main() {
	log.SetFlags(0)
	var opts cli.Options
	var (
		model     = flag.String("model", "vgg11", "model: "+strings.Join(models.Names(), ", "))
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
	if addr, err := opts.StartDebug(); err != nil {
		log.Fatal(err)
	} else if addr != "" {
		fmt.Printf("debug server on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	s := experiments.StandardScale()
	s.Epochs = *epochs
	s.TrainN, s.TestN = *trainN, *testN
	s.WidthScale = *width
	s.Seeds = []uint64{opts.Seed}

	reg := experiments.DefaultRegime()
	if *usePaper {
		reg = experiments.PaperRegime()
	}

	var ds *dataset.Dataset
	classes := 10
	switch *dsName {
	case "cifar10":
		ds = dataset.CIFAR10Like(s.TrainN, s.TestN, s.ImgSize, 77)
	case "cifar100":
		classes = 100
		ds = dataset.CIFAR100Like(s.TrainN*2, s.TestN, s.ImgSize, 88)
	case "svhn":
		ds = dataset.SVHNLike(s.TrainN, s.TestN, s.ImgSize, 99)
	default:
		log.Fatalf("unknown dataset %q", *dsName)
	}
	fmt.Println(ds)

	net, err := models.Build(*model, models.Config{
		InC: 3, InH: s.ImgSize, InW: s.ImgSize, Classes: classes,
		WidthScale: s.WidthScale, BatchNorm: true, Seed: opts.Seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d parameters, %d crossbar-mapped layers\n",
		*model, net.ParamCount(), len(net.MVMLayers()))

	cfg := trainer.DefaultConfig()
	cfg.Epochs = s.Epochs
	cfg.BatchSize = s.BatchSize
	cfg.LR = s.LR
	cfg.Seed = opts.Seed
	cfg.Ctx = ctx
	cfg.SimulateNoC = *simNoC
	// The final summary below prints regardless of Logf, so -quiet can
	// null the progress sink without losing the run's result lines.
	if !opts.Quiet {
		cfg.Logf = func(f string, a ...interface{}) { fmt.Printf(f+"\n", a...) }
	}

	switch {
	case *phase != "":
		ph := arch.Forward
		if *phase == "backward" {
			ph = arch.Backward
		} else if *phase != "forward" {
			log.Fatalf("-phase must be forward or backward, got %q", *phase)
		}
		cfg.Chip = experiments.NewChip(s)
		cfg.PhaseInject = &trainer.PhaseInjection{Phase: ph, Density: reg.PhaseDensity}
		fmt.Printf("targeted %s-phase injection at %.1f%% density\n", *phase, 100*reg.PhaseDensity)
	case *policy == "ideal":
		// no chip: ideal digital fabric
	default:
		pol, trackGrads, err := experiments.PolicyByName(*policy, reg)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Chip = experiments.NewChip(s)
		cfg.Policy = pol
		cfg.Pre = &reg.Pre
		if *endurance {
			em := fault.NewEnduranceModel()
			em.CharacteristicLife = 100 // compressed for few-epoch runs
			cfg.Endurance = em
		} else {
			cfg.Post = &reg.Post
		}
		cfg.TrackGradAbs = trackGrads
	}

	// The key names the run for both the checkpoint store and the
	// telemetry sink, so a cell's metrics files sit next to its snapshot.
	key := fmt.Sprintf("%s/%s/seed%d/%s", *model, *policy, opts.Seed, *dsName)
	if opts.CheckpointDir != "" {
		store, err := checkpoint.NewStore(opts.CheckpointDir, cfg.Logf)
		if err != nil {
			log.Fatal(err)
		}
		// The fingerprint binds the snapshot to every flag that shapes its
		// results, so changing a flag quietly invalidates the old snapshot
		// instead of misapplying it.
		fingerprint := fmt.Sprintf("train1|m=%s p=%s ph=%s ds=%s e=%d tr=%d te=%d w=%g s=%d noc=%v paper=%v end=%v",
			*model, *policy, *phase, *dsName, *epochs, *trainN, *testN, *width, opts.Seed, *simNoC, *usePaper, *endurance)
		cfg.Checkpoint = store.Cell(key, fingerprint)
	}

	var sink *obs.Sink
	var stream *obs.StreamTrace
	if opts.MetricsDir != "" {
		var err error
		sink, err = obs.NewSink(opts.MetricsDir)
		if err != nil {
			log.Fatal(err)
		}
		// Streaming trace: events flush to disk at every epoch boundary,
		// so even a killed run leaves a truncated (not empty) event log.
		stream, err = sink.Stream(checkpoint.CellFileBase(key), key)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Obs = stream
	}

	res, err := trainer.Train(net, ds, cfg)
	if stream != nil {
		// Flush before handling the training error: a failed run's
		// partial trace is evidence, not garbage.
		if werr := stream.Close(); werr != nil {
			log.Print(werr)
		} else {
			fmt.Printf("telemetry written to %s\n", sink.Dir())
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal accuracy %.4f (best %.4f), policy=%s\n", res.FinalTestAcc, res.BestTestAcc, res.Policy)
	if cfg.Chip != nil {
		fmt.Printf("faults injected: %d (final mean density %.4f%%)\n", res.FaultsInjected, 100*res.FinalMeanDensity)
		fmt.Printf("remap: %d senders, %d swaps, %d unmatched; BIST %d cycles; NoC %d cycles\n",
			res.Senders, res.Swaps, res.Unmatched, res.BISTCyclesTotal, res.NoCCyclesTotal)
	}
	os.Exit(0)
}
