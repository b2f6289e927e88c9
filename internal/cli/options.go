// Package cli factors out the flag surface the remapd command-line tools
// share. Before it existed, remapd-train, remapd-report and remapd-sweep
// each declared their own copies of the scheduling/observation flags
// (workers, checkpoint-dir, metrics-dir, status-addr, …) with drifting
// help strings; the dist worker mode would have been a fourth copy. The
// Options struct binds each flag group once and knows how to apply
// itself to an experiments.Scale, start the status server (the one
// harness HTTP surface: /status, pprof, expvar), build a dist fleet, and
// serve the worker loop. The grid tools (remapd-report,
// remapd-sweep) bind the grid, dist and worker groups, so either one
// coordinates a fleet or joins one; remapd-train binds the run and worker
// groups, remapd-serve the run and serve groups.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"

	"remapd/internal/checkpoint"
	"remapd/internal/dist"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// Options is the shared command-line surface. Zero value = all features
// off; each Bind* method registers one coherent flag group, so a tool
// picks exactly the groups it supports.
type Options struct {
	// Workers caps parallelism: runner cells for grid tools, GOMAXPROCS
	// for single-run tools and workers (-j).
	Workers int
	// CheckpointDir enables crash-safe per-epoch checkpoints (-checkpoint-dir).
	CheckpointDir string
	// MetricsDir enables per-cell simulation telemetry (-metrics-dir).
	MetricsDir string
	// Seed is the single-run training seed (-seed).
	Seed uint64
	// Quiet suppresses per-epoch progress lines (-quiet).
	Quiet bool
	// Progress logs one line per completed grid cell (-progress).
	Progress bool
	// Dist fans cells out to this many local worker processes, spawned
	// into a loopback fleet (-dist).
	Dist int
	// Listen serves a TCP fleet coordinator on this address (-listen);
	// cells run on whatever workers dial in.
	Listen string
	// FleetMax caps concurrently in-flight cells across the fleet
	// (-fleet, 0 = NumCPU).
	FleetMax int
	// Worker switches the tool into dist worker mode (-worker).
	Worker bool
	// Connect is the fleet coordinator a -worker dials (-connect
	// host:port).
	Connect string
	// Slots is the concurrent-cell capacity a fleet worker advertises
	// (-slots).
	Slots int
	// ChaosSever arms the fault injector on a fleet worker's connection:
	// sever it mid-cell once this many frames have passed (-chaos-sever-after).
	ChaosSever int
	// StatusAddr serves the live /status JSON endpoint, pprof and expvar
	// when non-empty (-status-addr).
	StatusAddr string
	// FleetTrace appends the structured fleet event trace (JSONL) to
	// this file (-fleet-trace): coordinator membership/scheduling events
	// with -dist or -listen, connection lifecycle events with -worker
	// -connect.
	FleetTrace string
	// ServeAddr serves the HTTP classification endpoint when non-empty
	// (-serve-addr).
	ServeAddr string
	// BatchMax closes a serving batch at this many requests (-batch-max).
	BatchMax int
	// BatchWait is the serving batch max-wait deadline in simulated ticks
	// (-batch-wait).
	BatchWait int
	// BISTEvery runs the online BIST scan every this many served requests
	// per chip (-bist-every, 0 = off).
	BISTEvery int
	// TrafficSeed seeds the deterministic traffic generator (-traffic-seed).
	TrafficSeed uint64

	// status is the registry StartStatus serves on -status-addr; Apply
	// hands it to the runner and the fleet, which register their
	// sections as they come up. Nil without -status-addr.
	status *obs.Status
}

// Bind registers the base observation/scheduling group every tool
// shares: -j, -checkpoint-dir, -metrics-dir, -status-addr.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.IntVar(&o.Workers, "j", 0, "parallelism cap: experiment cells for grid tools, GOMAXPROCS for single runs and workers (0 = all cores)")
	fs.StringVar(&o.CheckpointDir, "checkpoint-dir", "", "persist per-epoch checkpoints here; an interrupted run resumes bit-identically")
	fs.StringVar(&o.MetricsDir, "metrics-dir", "", "record simulation telemetry (metrics.json + events.jsonl) into this directory")
	fs.StringVar(&o.StatusAddr, "status-addr", "", "serve live run status as JSON on this address (GET /status: grid progress, per-worker fleet table, span aggregates, serving stats), plus pprof under /debug/pprof/ and expvar at /debug/vars")
}

// BindRun registers the single-run group: -seed, -quiet.
func (o *Options) BindRun(fs *flag.FlagSet) {
	fs.Uint64Var(&o.Seed, "seed", 1, "seed")
	fs.BoolVar(&o.Quiet, "quiet", false, "suppress per-epoch progress lines (the final summary still prints)")
}

// BindGrid registers the grid group: -progress.
func (o *Options) BindGrid(fs *flag.FlagSet) {
	fs.BoolVar(&o.Progress, "progress", false, "log one line per completed experiment cell")
}

// BindServe registers the inference-serving group: -serve-addr,
// -batch-max, -batch-wait, -bist-every, -traffic-seed.
func (o *Options) BindServe(fs *flag.FlagSet) {
	fs.StringVar(&o.ServeAddr, "serve-addr", "", "serve the HTTP classification endpoint (POST /classify) on this address; empty = driver mode only")
	fs.IntVar(&o.BatchMax, "batch-max", 8, "close a serving batch when this many requests are queued")
	fs.IntVar(&o.BatchWait, "batch-wait", 16, "close a partial serving batch once its oldest request has waited this many simulated ticks")
	fs.IntVar(&o.BISTEvery, "bist-every", 256, "run the online BIST scan (and, on failure, the policy's maintenance step) every this many served requests per chip (0 = off)")
	fs.Uint64Var(&o.TrafficSeed, "traffic-seed", 1, "seed for the deterministic traffic generator driving -requests")
}

// BindDist registers the coordinator side of distribution: -dist for a
// fleet of local worker processes, -listen/-fleet for a fleet that
// workers on any machine join.
func (o *Options) BindDist(fs *flag.FlagSet) {
	fs.IntVar(&o.Dist, "dist", 0, "fan experiment cells out to this many local worker processes, exec'd as -worker -connect to a loopback fleet (0 = run in-process); results are byte-identical either way")
	fs.StringVar(&o.Listen, "listen", "", "serve a fleet coordinator on this TCP address (e.g. :7433); cells run on workers that dial in with -worker -connect, which may join and leave mid-run")
	fs.IntVar(&o.FleetMax, "fleet", 0, "with -listen: max experiment cells in flight across the fleet (0 = all cores' worth)")
	o.bindFleetTrace(fs)
}

// BindWorker registers the worker side of distribution: -worker for the
// mode switch, -connect/-slots for dialing a fleet, -chaos-sever-after
// for the deterministic fault injector.
func (o *Options) BindWorker(fs *flag.FlagSet) {
	fs.BoolVar(&o.Worker, "worker", false, "run as a dist worker: run the experiment cells of the fleet coordinator given by -connect (-dist coordinators spawn their workers this way)")
	fs.StringVar(&o.Connect, "connect", "", "with -worker: dial this fleet coordinator (host:port); redials with backoff if the connection drops")
	fs.IntVar(&o.Slots, "slots", 1, "with -connect: concurrent experiment cells this worker advertises")
	fs.IntVar(&o.ChaosSever, "chaos-sever-after", 0, "with -connect: sever the connection mid-cell once this many protocol frames have passed (fault-injection testing; 0 = off)")
	o.bindFleetTrace(fs)
}

// bindFleetTrace registers -fleet-trace exactly once. Both the dist and
// worker groups want it (a coordinator traces membership, a worker its
// connection lifecycle) and the grid tools (remapd-report, remapd-sweep)
// bind both groups on one FlagSet, so the second registration must be a
// no-op rather than a flag redefinition panic.
func (o *Options) bindFleetTrace(fs *flag.FlagSet) {
	if fs.Lookup("fleet-trace") != nil {
		return
	}
	fs.StringVar(&o.FleetTrace, "fleet-trace", "", "append the structured fleet event trace (JSONL) to this file: join/leave/drop/requeue/stall events on a -dist or -listen coordinator, connect/disconnect/sever on a -worker -connect worker")
}

// Validate rejects incoherent combinations.
func (o *Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("cli: -j must be >= 0, got %d", o.Workers)
	}
	if o.Dist < 0 {
		return fmt.Errorf("cli: -dist must be >= 0, got %d", o.Dist)
	}
	if o.FleetMax < 0 {
		return fmt.Errorf("cli: -fleet must be >= 0, got %d", o.FleetMax)
	}
	if o.FleetMax > 0 && o.Listen == "" {
		return errors.New("cli: -fleet only applies to a -listen fleet coordinator")
	}
	if o.Dist > 0 && o.Worker {
		return errors.New("cli: -dist and -worker are mutually exclusive (a worker never coordinates)")
	}
	if o.Listen != "" && o.Worker {
		return errors.New("cli: -listen and -worker are mutually exclusive (a worker never coordinates)")
	}
	if o.Listen != "" && o.Dist > 0 {
		return errors.New("cli: -listen and -dist are mutually exclusive (pick remote or local workers)")
	}
	if o.Connect != "" && !o.Worker {
		return errors.New("cli: -connect requires -worker")
	}
	if o.Worker && o.Connect == "" {
		return errors.New("cli: -worker requires -connect (the coordinator to dial)")
	}
	if o.Connect != "" && o.Slots < 1 {
		return fmt.Errorf("cli: -slots must be >= 1, got %d", o.Slots)
	}
	if o.ChaosSever < 0 {
		return fmt.Errorf("cli: -chaos-sever-after must be >= 0, got %d", o.ChaosSever)
	}
	if o.ChaosSever > 0 && o.Connect == "" {
		return errors.New("cli: -chaos-sever-after only applies to a -connect fleet worker")
	}
	if o.BatchMax < 0 {
		return fmt.Errorf("cli: -batch-max must be >= 0, got %d", o.BatchMax)
	}
	if o.BatchWait < 0 {
		return fmt.Errorf("cli: -batch-wait must be >= 0, got %d", o.BatchWait)
	}
	if o.BISTEvery < 0 {
		return fmt.Errorf("cli: -bist-every must be >= 0, got %d", o.BISTEvery)
	}
	return nil
}

// StartStatus serves /status, pprof and expvar on -status-addr and
// returns the registry behind /status, into which Apply and the tools
// register their sections. Without -status-addr it serves nothing and
// returns nil, on which Register is a no-op. logf (stderr; never the
// tools' stdout, which carries their tables) receives the bound address.
func (o *Options) StartStatus(logf experiments.Logf) (*obs.Status, error) {
	if o.StatusAddr == "" {
		return nil, nil
	}
	o.status = obs.NewStatus()
	addr, err := obs.StartStatusServer(o.StatusAddr, o.status)
	if err != nil {
		return nil, err
	}
	if logf != nil {
		logf("status server on http://%s/status (pprof at /debug/pprof/, expvar at /debug/vars)", addr)
	}
	return o.status, nil
}

// Apply wires the options into a grid Scale: worker bound, progress
// sink, checkpoint store, metrics sink + harness profile, telemetry
// (spans, the /status sections StartStatus serves, fleet trace), and
// (with -dist/-listen) the remote executor. Tools call StartStatus
// first, so the runner and the fleet find its registry. It returns the profile (nil without -metrics-dir) and a
// cleanup that must run before exit — it shuts worker processes down
// gracefully and flushes the telemetry files. logf receives store
// warnings and progress lines.
func (o *Options) Apply(s *experiments.Scale, logf experiments.Logf) (*obs.Profile, func(), error) {
	var cleanups []func()
	cleanup := func() {
		// Reverse order: the executor shuts down before the trace that
		// records its teardown events is closed.
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	s.Workers = o.Workers
	if o.Progress {
		s.Progress = logf
	}
	if o.CheckpointDir != "" {
		store, err := checkpoint.NewStore(o.CheckpointDir, logf)
		if err != nil {
			return nil, cleanup, err
		}
		s.Checkpoints = store
	}
	var prof *obs.Profile
	if o.MetricsDir != "" {
		sink, err := obs.NewSink(o.MetricsDir)
		if err != nil {
			return nil, cleanup, err
		}
		s.Metrics = sink
		prof = obs.NewProfile()
	}
	// Spans are recorded whenever anyone can see them: the /status
	// endpoint serves live aggregates, the metrics dir persists
	// spans.json. Observation-only either way.
	if o.status != nil || o.MetricsDir != "" {
		spans := obs.NewSpanRecorder()
		s.Spans = spans
		if o.MetricsDir != "" {
			dir := o.MetricsDir
			cleanups = append(cleanups, func() {
				if err := spans.WriteJSON(dir); err != nil && logf != nil {
					logf("cli: write spans: %v", err)
				}
			})
		}
	}
	s.Status = o.status
	var trace *obs.FleetTrace
	if o.FleetTrace != "" {
		var err error
		trace, err = obs.NewFleetTraceFile(o.FleetTrace)
		if err != nil {
			return nil, cleanup, err
		}
		cleanups = append(cleanups, func() {
			if err := trace.Close(); err != nil && logf != nil {
				logf("cli: %v", err)
			}
		})
	}
	var (
		fleet *dist.Fleet
		err   error
	)
	switch {
	case o.Dist > 0:
		fleet, err = o.SpawnFleet(logf, trace)
		// Runner slots = worker processes; each process parallelises
		// internally via its -j share of the cores.
		s.Workers = o.Dist
	case o.Listen != "":
		fleet, err = o.NewFleet(logf, trace)
		// Runner slots bound the fleet-wide in-flight set; the fleet maps
		// each onto whichever connected worker has a free slot, so a
		// worker joining mid-run immediately starts pulling cells.
		s.Workers = o.FleetMax
		if s.Workers <= 0 {
			s.Workers = runtime.NumCPU()
		}
	}
	if err != nil {
		return nil, cleanup, err
	}
	if fleet != nil {
		s.Exec = fleet
		o.status.Register("fleet", fleet.StatusSection)
		cleanups = append(cleanups, fleet.Close)
	}
	return prof, cleanup, nil
}

// NewFleet opens the -listen socket and wraps it in the elastic fleet
// executor. The returned Fleet's Close (installed as Apply's cleanup)
// asks every connected worker to shut down. trace (may be nil) receives
// the structured fleet event record; the fleet always keeps an
// in-memory trace regardless.
func (o *Options) NewFleet(logf experiments.Logf, trace *obs.FleetTrace) (*dist.Fleet, error) {
	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return nil, fmt.Errorf("cli: -listen %s: %w", o.Listen, err)
	}
	fleet := dist.NewFleet(ln, dist.FleetOptions{Logf: logf, Trace: trace})
	if logf != nil {
		logf("fleet coordinator listening on %s; join workers with: -worker -connect <host>%s", ln.Addr(), portSuffix(ln.Addr()))
	}
	return fleet, nil
}

// portSuffix renders ":port" for the join hint (the listen address's
// host part is usually a wildcard the worker cannot dial).
func portSuffix(addr net.Addr) string {
	if tcp, ok := addr.(*net.TCPAddr); ok {
		return fmt.Sprintf(":%d", tcp.Port)
	}
	return ""
}

// SpawnFleet builds the fleet for -dist N: N re-invocations of this
// binary as -worker -connect workers of a loopback fleet, sharing the
// coordinator's checkpoint and metrics directories, each capped to a
// fair share of the cores. trace is as for NewFleet.
func (o *Options) SpawnFleet(logf experiments.Logf, trace *obs.FleetTrace) (*dist.Fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cli: locate own binary for -dist workers: %w", err)
	}
	argv := []string{exe, "-j", strconv.Itoa(workerProcs(o.Dist))}
	if o.CheckpointDir != "" {
		argv = append(argv, "-checkpoint-dir", o.CheckpointDir)
	}
	if o.MetricsDir != "" {
		argv = append(argv, "-metrics-dir", o.MetricsDir)
	}
	return dist.SpawnFleet(o.Dist, argv, nil, dist.FleetOptions{Logf: logf, Trace: trace})
}

// SetGOMAXPROCS applies a -j cap to the Go scheduler for single-run
// tools (grid tools cap runner slots instead). n <= 0 leaves the
// default (all cores) alone.
func SetGOMAXPROCS(n int) {
	if n > 0 {
		runtime.GOMAXPROCS(n)
	}
}

// workerProcs splits the machine's cores evenly across n workers.
func workerProcs(n int) int {
	if n <= 0 {
		return 0
	}
	per := runtime.NumCPU() / n
	if per < 1 {
		per = 1
	}
	return per
}

// ServeWorker runs the dist worker loop against the -connect fleet
// coordinator, with the options' checkpoint/metrics directories, -j
// GOMAXPROCS cap and -status-addr (pprof and expvar on the worker).
// logf receives checkpoint-store warnings and connection lifecycle
// notices on stderr.
func (o *Options) ServeWorker(ctx context.Context, logf experiments.Logf) error {
	if o.Workers > 0 {
		runtime.GOMAXPROCS(o.Workers)
	}
	if _, err := o.StartStatus(logf); err != nil {
		return err
	}
	var opts dist.WorkerOptions
	if o.CheckpointDir != "" {
		store, err := checkpoint.NewStore(o.CheckpointDir, logf)
		if err != nil {
			return err
		}
		opts.Checkpoints = store
	}
	if o.MetricsDir != "" {
		sink, err := obs.NewSink(o.MetricsDir)
		if err != nil {
			return err
		}
		opts.Metrics = sink
	}
	dial := dist.DialOptions{Slots: o.Slots, Worker: opts, Logf: logf}
	if o.FleetTrace != "" {
		trace, err := obs.NewFleetTraceFile(o.FleetTrace)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := trace.Close(); cerr != nil && logf != nil {
				logf("cli: %v", cerr)
			}
		}()
		dial.Trace = trace
	}
	if o.ChaosSever > 0 {
		chaos := dist.NewChaos(dist.ChaosConfig{SeverAfter: o.ChaosSever}, logf)
		chaos.SetTrace(dial.Trace)
		if logf != nil {
			logf("fault injection armed: %s", chaos)
		}
		dial.Chaos = chaos
	}
	return dist.DialAndServe(ctx, o.Connect, dial)
}
