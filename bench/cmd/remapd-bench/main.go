// Command remapd-bench is remapd's end-to-end benchmark. It runs each
// workload in a fresh child process (GOMAXPROCS 1, see childProcs),
// prints every metric by name with its unit, checks the outputs
// against the committed digests, and prints one JSON result as its last
// line. Run it from the repository root through bench/run.sh, which
// builds it into .bench_build first:
//
//	bash bench/run.sh -seed 1                       # all four workloads
//	bash bench/run.sh -workload serve-drive -seed 3 -seconds 20
//	bash bench/run.sh -workload train-vgg11 -trace 1   # per-layer metrics
//	bash bench/run.sh -runs 5 -out a.json           # a ledger of 5 runs each
//	bash bench/run.sh -compare a.json b.json        # verdicts under the bounds
//
// -trace 1 (or -trace DIR) runs the workload twice, untraced and then
// with the layer wrappers of bench/trace installed: it reports the
// per-layer metrics, writes the spans as JSONL (to .bench_build/trace or
// DIR), and reports the tracing overhead against the untraced run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"remapd/bench"
	"remapd/bench/workload"
	"remapd/internal/cli"
)

// defaultTraceDir is where -trace 1 writes spans, relative to the
// repository root.
const defaultTraceDir = ".bench_build/trace"

// childProcs is the GOMAXPROCS of a workload's child process: the serial
// path of the tensor kernels, as every dist worker of the grid (and any
// tool run with -j 1) takes it. On the 2-vCPU machine the benchmark was
// defined on, GOMAXPROCS 2 made train-vgg11 and serve-drive 5-20% slower
// and their run-to-run spread about twice as wide (README.md, "Machine
// caveats").
const childProcs = 1

func main() {
	log.SetFlags(0)
	// The grid workload's dist executor re-executes this binary with
	// -worker; serve the cell protocol on stdin/stdout then.
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(worker(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func worker(args []string) int {
	var opts cli.Options
	fs := flag.NewFlagSet("remapd-bench -worker", flag.ContinueOnError)
	opts.Bind(fs)
	opts.BindWorker(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := opts.ServeWorker(ctx, log.Printf); err != nil && ctx.Err() == nil {
		log.Print(err)
		return 1
	}
	return 0
}

type flags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	runs     int
	out      string
	short    bool
	compare  string
	child    bool
}

func run(args []string, stdout io.Writer) int {
	var f flags
	fs := flag.NewFlagSet("remapd-bench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "run only this workload (train-vgg11, grid-fig6, serve-drive, serve-http); empty runs all four")
	fs.Uint64Var(&f.seed, "seed", 1, "workload seed: every input of a run is generated from it")
	fs.Float64Var(&f.seconds, "seconds", 20, "measurement budget per run: units of work repeat while they fit")
	fs.StringVar(&f.trace, "trace", "0", "0 for the untraced run; 1 or a directory for the traced run (spans go to "+defaultTraceDir+" or the directory)")
	fs.IntVar(&f.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	fs.StringVar(&f.out, "out", "", "append every run to this ledger file")
	fs.BoolVar(&f.short, "short", false, "smoke-test unit sizes (no digest check)")
	fs.StringVar(&f.compare, "compare", "", "compare ledger `A` with the ledger named by the first argument under the BENCHMARK.json bounds")
	fs.BoolVar(&f.child, "child", false, "run one workload in this process (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case f.compare != "":
		if fs.NArg() != 1 {
			log.Print("remapd-bench: -compare A B needs the second ledger as an argument")
			return 2
		}
		return compare(stdout, f.compare, fs.Arg(0), "BENCHMARK.json")
	case f.child:
		return child(ctx, stdout, f)
	}

	names := []string{f.workload}
	if f.workload == "" {
		names = nil
		for _, w := range workload.All {
			names = append(names, w.Name)
		}
	} else if _, ok := workload.ByName(f.workload); !ok {
		log.Printf("remapd-bench: unknown workload %q", f.workload)
		return 2
	}
	if f.runs < 1 {
		log.Print("remapd-bench: -runs must be >= 1")
		return 2
	}
	traceDir := f.trace
	switch traceDir {
	case "0", "":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}

	var runs []ledgerRun
	for _, name := range names {
		for i := 0; i < f.runs; i++ {
			r, err := parent(ctx, f, name, f.seed+uint64(i), traceDir)
			if err != nil {
				log.Printf("remapd-bench: %s seed %d: %v", name, f.seed+uint64(i), err)
				return 1
			}
			printRun(stdout, r)
			runs = append(runs, r)
		}
	}
	if f.out != "" {
		if err := appendLedger(f.out, runs); err != nil {
			log.Printf("remapd-bench: %v", err)
			return 1
		}
	}
	final := runs[0].Result
	if len(runs) > 1 {
		final = combine(runs)
	}
	js, err := json.Marshal(final)
	if err != nil {
		log.Printf("remapd-bench: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", js)
	if !final.Correct {
		return 1
	}
	return 0
}

// childReport is the one JSON line a child process prints.
type childReport struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]bench.Metric `json:"end_to_end"`
	PerLayer  map[string]bench.Metric `json:"per_layer,omitempty"`
}

// child runs one workload in this process and reports it.
func child(ctx context.Context, stdout io.Writer, f flags) int {
	w, ok := workload.ByName(f.workload)
	if !ok {
		log.Printf("remapd-bench: unknown workload %q", f.workload)
		return 2
	}
	traceDir := f.trace
	if traceDir == "0" {
		traceDir = ""
	}
	out, err := w.Run(ctx, workload.Options{
		Seed: f.seed, Seconds: f.seconds, Short: f.short, TraceDir: traceDir,
		Logf: func(format string, args ...interface{}) { log.Printf(w.Name+": "+format, args...) },
	})
	if err != nil {
		log.Printf("remapd-bench: %s: %v", w.Name, err)
		return 1
	}
	out.EndToEnd["peak_rss_mb"] = peakRSSMB()
	rep := childReport{
		Attempted: out.Attempted, Failed: out.Failed,
		EndToEnd: bench.Fill(bench.EndToEnd, out.EndToEnd),
	}
	if out.PerLayer != nil {
		rep.PerLayer = bench.Fill(bench.PerLayer(), out.PerLayer)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		log.Printf("remapd-bench: %v", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", js)
	return 0
}

// peakRSSMB is the largest peak resident set size of this process and of
// the processes it started and reaped (the grid's dist workers). Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var peak int64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil && ru.Maxrss > peak {
			peak = ru.Maxrss
		}
	}
	return float64(peak) / 1024
}

// parent runs one workload at one seed in child processes: untraced, and
// then traced when traceDir is set.
func parent(ctx context.Context, f flags, name string, seed uint64, traceDir string) (ledgerRun, error) {
	r := ledgerRun{Workload: name, Seed: seed, Trace: traceDir != ""}
	base, err := spawn(ctx, f, name, seed, "")
	if err != nil {
		return r, err
	}
	r.Result = bench.Result{
		Correct:   base.Failed == 0 && base.Attempted > 0,
		Attempted: base.Attempted,
		Failed:    base.Failed,
		Metrics:   base.EndToEnd,
	}
	if traceDir == "" {
		return r, nil
	}
	traced, err := spawn(ctx, f, name, seed, traceDir)
	if err != nil {
		return r, err
	}
	r.Result = bench.Result{
		Correct:   r.Result.Correct && traced.Failed == 0 && traced.Attempted > 0,
		Attempted: base.Attempted + traced.Attempted,
		Failed:    base.Failed + traced.Failed,
		Metrics:   traced.PerLayer,
	}
	// Overhead: how much worse each end-to-end metric reads traced.
	r.Overhead = map[string]float64{}
	for _, s := range bench.EndToEnd {
		b, t := base.EndToEnd[s.Name].Value, traced.EndToEnd[s.Name].Value
		if b == 0 {
			continue
		}
		if s.Name == "throughput" {
			r.Overhead[s.Name] = b/t - 1
		} else {
			r.Overhead[s.Name] = t/b - 1
		}
	}
	return r, nil
}

// spawn runs one child process and decodes its report.
func spawn(ctx context.Context, f flags, name string, seed uint64, traceDir string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	trace := "0"
	if traceDir != "" {
		trace = traceDir
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "-trace", trace}
	if f.short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// On cancellation ask the child to stop (it closes its own dist
	// workers) before killing it.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rep childReport
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if rep.EndToEnd == nil {
		return nil, errors.New("child report has no metrics")
	}
	return &rep, nil
}

// printRun prints one run's metrics, one per line, with units.
func printRun(w io.Writer, r ledgerRun) {
	mode := "untraced"
	specs := bench.EndToEnd
	if r.Trace {
		mode, specs = "traced", bench.PerLayer()
	}
	status := "correct"
	if !r.Result.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s seed %d (%s): %s, %d attempted, %d failed\n",
		r.Workload, r.Seed, mode, status, r.Result.Attempted, r.Result.Failed)
	for _, s := range specs {
		m := r.Result.Metrics[s.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", s.Name, m.Value, m.Unit)
	}
	for _, s := range bench.EndToEnd {
		if v, ok := r.Overhead[s.Name]; ok {
			fmt.Fprintf(w, "  tracing overhead on %-18s %+.2f%%\n", s.Name, 100*v)
		}
	}
}

// combine folds several runs into one result: correct only if every run
// was, counts summed, and each metric the median over the runs, named
// <workload>.<metric>.
func combine(runs []ledgerRun) bench.Result {
	res := bench.Result{Correct: true, Metrics: map[string]bench.Metric{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		res.Correct = res.Correct && r.Result.Correct
		res.Attempted += r.Result.Attempted
		res.Failed += r.Result.Failed
		for name, m := range r.Result.Metrics {
			key := r.Workload + "." + name
			values[key] = append(values[key], m.Value)
			units[key] = m.Unit
		}
	}
	for key, vs := range values {
		res.Metrics[key] = bench.Metric{Value: bench.Quantile(vs, 0.5), Unit: units[key]}
	}
	return res
}
