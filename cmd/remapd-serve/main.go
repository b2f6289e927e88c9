// Command remapd-serve is the fault-aware online inference service: it
// loads a trained checkpoint onto a pool of simulated faulty, wearing
// ReRAM chips and serves classification traffic through a batching
// scheduler. Under traffic the serving crossbars wear (refresh writes),
// an online BIST scan runs every -bist-every requests, and a scan failure
// triggers the policy's phase-agnostic maintenance step — Remap-D swaps
// hot forward tasks onto the idle backward-phase crossbars, keeping
// accuracy up without taking the service down.
//
// Examples:
//
//	remapd-train -model vgg11 -policy remap-d -checkpoint-dir ckpt
//	remapd-serve -model vgg11 -policy remap-d -checkpoint-dir ckpt -requests 2048
//	remapd-serve ... -requests 2048 -metrics-dir out -status-addr :8080
//	remapd-serve ... -serve-addr :8473             # live HTTP endpoint
//
// With -requests N the tool drives N deterministically generated requests
// (seeded by -traffic-seed) through the scheduler and exits: two runs
// with the same checkpoint and flags produce byte-identical metrics and
// event traces. With -serve-addr it serves POST /classify until
// interrupted; both modes compose (drive first, then serve).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"remapd/internal/checkpoint"
	"remapd/internal/cli"
	"remapd/internal/experiments"
	"remapd/internal/fault"
	"remapd/internal/models"
	"remapd/internal/obs"
	"remapd/internal/serve"
	"remapd/internal/tensor"
)

func main() {
	log.SetFlags(0)
	var opts cli.Options
	var (
		model     = flag.String("model", "vgg11", "model: "+strings.Join(models.Names(), ", "))
		policy    = flag.String("policy", "remap-d", "maintenance policy: "+strings.Join(experiments.PolicyNames(), ", "))
		trainPol  = flag.String("train-policy", "", "policy the checkpoint was trained under, for -checkpoint-dir path derivation (default: -policy)")
		dsName    = flag.String("dataset", "cifar10", "dataset the checkpoint was trained on: cifar10, cifar100, svhn")
		ckptFile  = flag.String("checkpoint", "", "checkpoint file to serve (default: derived from -checkpoint-dir and the run flags, matching remapd-train's layout)")
		width     = flag.Float64("width", 0.125, "model width scale (must match the checkpoint)")
		testN     = flag.Int("test", 512, "traffic sample pool size (test-split samples)")
		chips     = flag.Int("chips", 1, "replica chips in the serving pool")
		requests  = flag.Int("requests", 0, "driver mode: serve this many seeded requests, print the SLO summary, exit")
		jitter    = flag.Int("jitter", 3, "max extra ticks between generated arrivals")
		wearLife  = flag.Float64("wear-life", 4000, "Weibull characteristic life in array writes for traffic-driven wear (0 = no wear)")
		writesPer = flag.Int("writes-per-batch", 4, "refresh writes each serving crossbar absorbs per executed batch (the wear clock)")
		threshold = flag.Float64("threshold", 0, "BIST-failure density threshold (0 = the default regime's remap threshold)")
		preFaults = flag.Bool("pre-faults", true, "inject the manufacturing fault profile into each chip before deployment")
	)
	opts.Bind(flag.CommandLine)
	opts.BindRun(flag.CommandLine)
	opts.BindServe(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}
	if *requests <= 0 && opts.ServeAddr == "" {
		log.Fatal("nothing to do: set -requests N (deterministic driver) and/or -serve-addr (HTTP endpoint)")
	}
	if *chips < 1 {
		log.Fatalf("-chips must be >= 1, got %d", *chips)
	}
	if opts.BatchMax < 1 {
		log.Fatalf("-batch-max must be >= 1, got %d", opts.BatchMax)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cli.SetGOMAXPROCS(opts.Workers)
	status, err := opts.StartStatus(log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	s := experiments.StandardScale()
	s.WidthScale = *width
	s.TestN = *testN

	dsSpec, classes, err := experiments.NamedDataset(*dsName, s.ScaleSpec)
	if err != nil {
		log.Fatal(err)
	}
	dsSpec.Train = 1 // serving draws traffic from the test split only
	ds, err := dsSpec.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Locate and decode the checkpoint: an explicit file wins, otherwise
	// derive the path remapd-train would have written for these flags.
	// The trained-under policy keys the file; the serving policy may
	// differ (policy comparisons serve the same trained weights).
	if *trainPol == "" {
		*trainPol = *policy
	}
	key := experiments.CellKey{Model: *model, Policy: *trainPol, Seed: opts.Seed, Extra: *dsName}.String()
	path := *ckptFile
	if path == "" {
		if opts.CheckpointDir == "" {
			log.Fatal("need -checkpoint <file> or -checkpoint-dir <dir>")
		}
		path = filepath.Join(opts.CheckpointDir, checkpoint.CellFileBase(key)+".ckpt")
	}
	snap, err := checkpoint.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint %s: %d epochs trained under %s\n", path, snap.Epoch, snap.PolicyName)

	reg := experiments.DefaultRegime()
	if *threshold <= 0 {
		*threshold = reg.RemapThreshold
	}

	cfg := serve.Config{
		BatchMax:       opts.BatchMax,
		BatchWait:      uint64(opts.BatchWait),
		BISTEvery:      opts.BISTEvery,
		Threshold:      *threshold,
		WritesPerBatch: *writesPer,
		InC:            ds.C,
		InH:            ds.H,
		InW:            ds.W,
	}

	// Telemetry: one streaming trace for the whole pool, keyed like a
	// training cell with a /serve suffix so remapd-metrics can tell the
	// domains apart.
	var sink *obs.Sink
	var stream *obs.StreamTrace
	if opts.MetricsDir != "" {
		sink, err = obs.NewSink(opts.MetricsDir)
		if err != nil {
			log.Fatal(err)
		}
		// Keyed by the SERVING policy (the checkpoint key uses the
		// trained-under policy, which may differ).
		cell := experiments.CellKey{Model: *model, Policy: *policy, Seed: opts.Seed, Extra: *dsName + "/serve"}.String()
		stream, err = sink.Stream(checkpoint.CellFileBase(cell), cell)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Obs = stream
	}

	reps := make([]*serve.Replica, *chips)
	for i := range reps {
		net, err := experiments.BuildModel(*model, s, opts.Seed, classes)
		if err != nil {
			log.Fatal(err)
		}
		if err := snap.RestoreNetwork(net); err != nil {
			log.Fatal(err)
		}
		chip := experiments.NewChip(s)
		// Each replica chip is a distinct physical die: its own
		// manufacturing fault profile and its own wear RNG stream.
		faultSeed := opts.Seed<<16 + uint64(i) + 1
		if *preFaults {
			pre := tensor.NewRNG(faultSeed)
			reg.Pre.Inject(chip.Xbars, pre)
		}
		pol, _, err := experiments.PolicyByName(*policy, reg)
		if err != nil {
			log.Fatal(err)
		}
		rc := serve.ReplicaConfig{Net: net, Chip: chip, Policy: pol, FaultSeed: faultSeed}
		if *wearLife > 0 {
			em := fault.NewEnduranceModel()
			em.CharacteristicLife = *wearLife
			rc.Endurance = em
		}
		reps[i], err = serve.NewReplica(rc, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("pool: %d × %s on %d-crossbar chips, policy %s, batch ≤%d wait %d ticks, BIST every %d requests\n",
		*chips, *model, reps[0].Chip().Geom.Crossbars(), *policy, opts.BatchMax, opts.BatchWait, opts.BISTEvery)

	srv, err := serve.New(cfg, reps)
	if err != nil {
		log.Fatal(err)
	}

	status.Register("serve", srv.StatusSection)

	if *requests > 0 {
		tr := serve.NewTraffic(ds, opts.TrafficSeed, *jitter)
		serve.Drive(srv, tr, *requests)
		printSummary(srv.Stats())
	}

	if opts.ServeAddr != "" {
		front := serve.NewFront(srv, 10*time.Millisecond)
		front.Start()
		ln, err := net.Listen("tcp", opts.ServeAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("serving POST /classify on http://%s/classify\n", ln.Addr())
		hs := &http.Server{Handler: front.Handler()}
		go func() {
			if serr := hs.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				log.Print(serr)
			}
		}()
		<-ctx.Done()
		if err := hs.Close(); err != nil {
			log.Print(err)
		}
		front.Close()
		fmt.Println()
		printSummary(srv.Stats())
	}

	if stream != nil {
		if err := stream.Close(); err != nil {
			log.Print(err)
		} else {
			fmt.Printf("telemetry written to %s\n", sink.Dir())
		}
	}
}

func printSummary(st serve.Stats) {
	fmt.Printf("served %d requests in %d batches (%d deadline flushes) over %d ticks\n",
		st.Requests, st.Batches, st.DeadlineFlushes, st.Tick)
	fmt.Printf("accuracy %.4f overall (%.4f last window), mean fault density %.4f%%\n",
		st.AccuracyTotal, st.AccuracyWindow, 100*st.MeanDensity)
	fmt.Printf("p99 latency %.0f ticks\n", st.P99LatencyTicks)
	fmt.Printf("maintenance: %d BIST scans, %d rounds triggered, %d online swaps (%d senders), %d wear faults\n",
		st.BISTScans, st.MaintainRounds, st.OnlineSwaps, st.OnlineSenders, st.WearFaults)
}
