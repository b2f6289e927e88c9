// Command remapd-report regenerates every table and figure of the paper's
// evaluation at the chosen scale and prints them in EXPERIMENTS.md order.
// This is the one-command reproduction entry point:
//
//	remapd-report -scale quick                        # minutes
//	remapd-report -scale standard                     # the full six-model matrix (slow)
//	remapd-report -scale quick -only fig6 -dist 4     # same bytes, four worker processes
//	remapd-report -scale quick -only fig6 -listen :7433  # same bytes, elastic TCP fleet
//
// With -dist N the experiment cells fan out to N copies of this binary,
// exec'd as -worker -connect workers of a loopback fleet; with -listen
// they fan out to whatever workers dial in over TCP,
//
//	remapd-report -worker -connect host:7433 -slots 2 -checkpoint-dir /shared/ckpt
//
// which may join and leave mid-report: a dead or partitioned worker's
// cells are requeued onto survivors, resuming from the shared checkpoint
// directory. Either way the report is byte-identical to the in-process
// run. -only restricts the report to named sections (comma-separated
// keys: fig4 fig5 fig6 fig7 fig8 bist noc area ablations); an unknown key
// is an error. -only fig6, the Fig. 6 policy grid, is the canonical
// distributed workload the CI fleet jobs drive.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
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
		scale  = flag.String("scale", "quick", "quick or standard")
		csvDir = flag.String("csv", "", "also write each figure's rows as CSV into this directory")
		only   = flag.String("only", "", "run only these comma-separated sections (fig4 fig5 fig6 fig7 fig8 bist noc area ablations); empty = all")
	)
	opts.Bind(flag.CommandLine)
	opts.BindGrid(flag.CommandLine)
	opts.BindDist(flag.CommandLine)
	opts.BindWorker(flag.CommandLine)
	flag.Parse()
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	// Ctrl-C cancels in-flight training cells at their next batch boundary
	// (worker processes drain their in-flight cell the same way).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if opts.Worker {
		// Worker mode: same binary, protocol loop instead of a report.
		if err := opts.ServeWorker(ctx, log.Printf); err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		return
	}

	if _, err := opts.StartStatus(log.Printf); err != nil {
		log.Fatal(err)
	}

	// An unknown -only key is an error, not an empty report: a typo must
	// not make two runs agree by both printing nothing.
	sections := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "bist", "noc", "area", "ablations"}
	wantAll := *only == ""
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k == "" {
			continue
		}
		if !slices.Contains(sections, k) {
			log.Fatalf("unknown -only section %q (valid: %s)", k, strings.Join(sections, " "))
		}
		want[k] = true
	}
	sectionWanted := func(key string) bool { return wantAll || want[key] }

	writeCSV := func(name string, rows interface{}) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := experiments.WriteCSV(f, rows); err != nil {
			log.Fatal(err)
		}
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
	trace, cleanup, err := opts.Apply(&s, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()
	reg := experiments.DefaultRegime()
	//lint:allow no-wall-clock operator-facing report timing; results are computed from seeds only
	start := time.Now()
	// section prints a header, closes the previous section's harness
	// phase and opens the new one on the timeline — every section body
	// between two headers is one phase (nothing is recorded without a
	// timeline).
	stopPhase := func() {}
	section := func(title string) {
		stopPhase()
		stopPhase = trace.StartPhase(title)
		fmt.Printf("\n==== %s ====\n\n", title)
	}

	if sectionWanted("fig4") {
		section("Fig. 4 — BIST current vs fault count")
		rows4 := experiments.Fig4(4, 4, 50, 1)
		fmt.Print(experiments.FormatFig4(rows4))
		writeCSV("fig4", rows4)
	}

	if sectionWanted("fig5") {
		section("Fig. 5 — forward vs backward phase fault tolerance")
		f5 := s
		if *scale == "quick" {
			f5.Models = []string{"vgg11"}
		}
		rows5, err := experiments.Fig5(ctx, f5, reg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatFig5(rows5))
		writeCSV("fig5", rows5)
	}

	if sectionWanted("fig6") {
		section("Fig. 6 — policy comparison under pre+post faults")
		rows6, err := experiments.Fig6(ctx, s, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatFig6(rows6))
		writeCSV("fig6", rows6)
	}

	if sectionWanted("fig7") {
		section("Fig. 7 — Remap-D post-deployment sweep")
		sweepModels := []string{"vgg19", "resnet12"}
		if *scale == "quick" {
			sweepModels = []string{"vgg11"}
		}
		rows7, err := experiments.Fig7(ctx, s, reg, sweepModels,
			[]float64{0.005, 0.03, 0.06}, []float64{0.01, 0.02, 0.04})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatFig7(rows7))
		writeCSV("fig7", rows7)
	}

	if sectionWanted("fig8") {
		section("Fig. 8 — scalability (CIFAR-100-like, SVHN-like)")
		rows8, err := experiments.Fig8(ctx, s, reg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatFig8(rows8))
		writeCSV("fig8", rows8)
	}

	if sectionWanted("bist") {
		section("BIST timing overhead (paper: 0.13%)")
		fmt.Print(experiments.FormatBISTOverhead(experiments.BISTTimingOverhead(50000, 19, 8)))
	}

	if sectionWanted("noc") {
		section("NoC remap overhead, 50-round Monte Carlo (paper: 0.22% / 0.36%)")
		fmt.Print(experiments.FormatNoCOverhead(experiments.NoCRemapOverhead(50, 2, 10, 42)))
	}

	if sectionWanted("area") {
		section("Area overheads (paper: BIST 0.61%, AN 6.3%, Remap-T-10% 10%)")
		rowsArea := experiments.AreaOverheads()
		fmt.Print(experiments.FormatArea(rowsArea))
		writeCSV("area", rowsArea)
	}

	if sectionWanted("ablations") {
		model := s.Models[len(s.Models)-1]
		section("Ablation — Remap-D trigger threshold (" + model + ")")
		rt, err := experiments.AblationThreshold(ctx, s, reg, model, []float64{0.004, 0.01, 0.02, 0.05})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatThreshold(rt))

		section("Ablation — receiver selection (nearest vs random)")
		rr, err := experiments.AblationReceiverSelection(ctx, s, reg, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatReceiver(rr))

		section("Ablation — conductance coding scheme")
		rc, err := experiments.AblationCoding(ctx, s, reg, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatCoding(rc))

		section("Ablation — BIST estimate vs ground-truth density")
		rb, err := experiments.AblationBISTvsTruth(ctx, s, reg, model)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatBISTvsTruth(rb))
	}

	stopPhase()
	if opts.MetricsDir != "" {
		fmt.Printf("\ntelemetry and harness timeline written to %s\n", opts.MetricsDir)
	}
	//lint:allow no-wall-clock operator-facing report timing; results are computed from seeds only
	fmt.Printf("\nreport complete in %s (scale=%s)\n", time.Since(start).Round(time.Second), s.Name)
}
