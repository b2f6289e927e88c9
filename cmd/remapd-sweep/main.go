// Command remapd-sweep regenerates Fig. 7: Remap-D accuracy across the
// post-deployment fault sweep (m = new-fault cell fraction per victim,
// n = victim crossbar fraction per epoch) for VGG-19 and ResNet-12.
//
// The sweep grid distributes like the other tools: -dist N fans cells
// out to N local worker processes, -listen serves an elastic TCP fleet
// that remote workers join, and -worker -connect turns this binary into
// a worker.
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

	"remapd/internal/cli"
	"remapd/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var opts cli.Options
	var (
		modelsFlag = flag.String("models", "vgg19,resnet12", "comma-separated sweep models")
		epochs     = flag.Int("epochs", 6, "training epochs")
		trainN     = flag.Int("train", 512, "training samples")
		seeds      = flag.Int("seeds", 1, "seeds to average")
		msFlag     = flag.String("m", "0.005,0.03,0.06", "cell fractions (compressed-schedule equivalents of the paper's 0.1–1%)")
		nsFlag     = flag.String("n", "0.01,0.02,0.04", "crossbar fractions (equivalents of the paper's 0.1–2%)")
	)
	opts.Bind(flag.CommandLine)
	opts.BindGrid(flag.CommandLine)
	opts.BindDist(flag.CommandLine)
	opts.BindWorker(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.Worker {
		// Worker mode: same binary, protocol loop instead of a sweep.
		if err := opts.ServeWorker(ctx, log.Printf); err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		return
	}

	if _, err := opts.StartStatus(log.Printf); err != nil {
		log.Fatal(err)
	}

	s := experiments.StandardScale()
	s.Epochs = *epochs
	s.TrainN = *trainN
	s.Seeds = nil
	for i := 0; i < *seeds; i++ {
		s.Seeds = append(s.Seeds, uint64(i+1))
	}
	_, cleanup, err := opts.Apply(&s, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	reg := experiments.DefaultRegime()

	parse := func(csv string) []float64 {
		var out []float64
		for _, f := range strings.Split(csv, ",") {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &v); err != nil {
				log.Fatalf("bad float %q", f)
			}
			out = append(out, v)
		}
		return out
	}

	sweepModels := strings.Split(*modelsFlag, ",")
	fmt.Printf("Fig. 7 — Remap-D under post-deployment sweeps (%s)\n\n", *modelsFlag)
	rows, err := experiments.Fig7(ctx, s, reg, sweepModels, parse(*msFlag), parse(*nsFlag))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatFig7(rows))
	if opts.MetricsDir != "" {
		fmt.Printf("\ntelemetry and harness timeline written to %s\n", opts.MetricsDir)
	}
}
