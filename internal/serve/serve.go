// Package serve is the fault-aware online inference service: it loads a
// trained checkpoint onto a pool of simulated (faulty, wearing) ReRAM
// chips and serves classification traffic through a request-batching
// scheduler feeding the forward-only nn.Infer path.
//
// The paper's Remap-D runs at training epoch boundaries; production chips
// spend their lives serving, and wear faults keep accruing under live
// traffic. This package turns the epoch-boundary remap into a
// serving-time reliability mechanism: every -bist-every served requests a
// chip runs an online BIST scan, and when the scan finds a forward-task
// crossbar over the density threshold it invokes the policy's
// phase-agnostic Maintain step with remap.TriggerServing — under which
// Remap-D treats forward tasks as fault-critical and the idle
// backward-task crossbars as the clean receiver pool.
//
// Everything is deterministic by construction: time is a simulated tick
// clock advanced by request arrivals (never the host clock), wear is
// clocked by served batches, and all randomness flows from seeded
// tensor.RNG streams. Two runs with the same checkpoint, traffic seed and
// wear configuration produce byte-identical metrics and event traces.
package serve

import (
	"fmt"
	"sync"

	"remapd/internal/arch"
	"remapd/internal/bist"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/obs"
	"remapd/internal/remap"
	"remapd/internal/tensor"
)

// Canonical bucket layouts for the serving SLO histograms.
var (
	// LatencyBuckets covers request latencies in simulated ticks, from a
	// lone request on an idle pipeline through maintenance-delayed tails.
	LatencyBuckets = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	// BatchSizeBuckets covers scheduler batch sizes.
	BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}
)

// Request is one classification request flowing through the scheduler.
type Request struct {
	// Image is the C·H·W input in dataset layout. The scheduler copies it
	// into the batch tensor at execution, so the slice may be a view.
	Image []float32
	// Label is the ground-truth class for accuracy tracking, or -1 when
	// unknown (external HTTP traffic).
	Label int
	// Arrival is the request's arrival tick on the simulated clock.
	// Arrivals must be non-decreasing across Submit calls.
	Arrival uint64

	// Class and Completion are filled by the scheduler when the batch
	// containing the request executes.
	Class      int
	Completion uint64
}

// Config fixes the scheduler and maintenance parameters of a Server.
type Config struct {
	// BatchMax closes a batch when this many requests are queued.
	BatchMax int
	// BatchWait closes a batch once the oldest queued request has waited
	// this many ticks — the max-wait deadline bounding tail latency under
	// thin traffic.
	BatchWait uint64
	// BISTEvery runs the online BIST scan after every BISTEvery requests
	// served on a chip (0 disables online maintenance).
	BISTEvery int
	// Threshold is the fault density above which a scanned forward-task
	// crossbar counts as a BIST failure and triggers Maintain.
	Threshold float64
	// WritesPerBatch is the refresh writes each forward-task crossbar
	// absorbs per executed batch — the wear clock under read traffic
	// (drift-compensation reprogramming on the arrays being read).
	WritesPerBatch int
	// Timing converts batch execution into simulated ReRAM cycles.
	Timing arch.TimingModel
	// InC/InH/InW is the input image geometry.
	InC, InH, InW int
	// Obs receives the serving telemetry (counters, SLO histograms, swap
	// and wear events) when non-nil. Pure observation: no scheduling or
	// maintenance decision reads it.
	Obs obs.Recorder
}

// ReplicaConfig bundles one chip's serving state. The caller builds the
// network (with trained weights loaded), the chip, and the policy;
// NewReplica maps, binds and deploys them.
type ReplicaConfig struct {
	Net    *nn.Network
	Chip   *arch.Chip
	Policy remap.Policy
	// Endurance, when non-nil, materialises wear faults from the chip's
	// write counters at every scan.
	Endurance *fault.EnduranceModel
	// FaultSeed seeds the replica's fault-materialisation RNG stream.
	FaultSeed uint64
}

// Replica is one serving chip: a network bound to a fabric, its policy,
// and its wear/maintenance bookkeeping.
type Replica struct {
	net       *nn.Network
	chip      *arch.Chip
	policy    remap.Policy
	endurance *fault.EnduranceModel
	faultRNG  *tensor.RNG
	mctx      *remap.Context

	served    int    // requests served on this replica
	sinceScan int    // requests since the last BIST scan
	round     int    // maintenance round counter (event Epoch coordinate)
	busyUntil uint64 // simulated tick the chip frees up

	// rolling accuracy window, reset at each scan
	winTotal, winCorrect int
}

// NewReplica maps the network onto the chip, binds the fabric, and runs
// the policy's deploy step (round 0 of the event trace).
func NewReplica(rc ReplicaConfig, cfg Config) (*Replica, error) {
	if rc.Net == nil || rc.Chip == nil || rc.Policy == nil {
		return nil, fmt.Errorf("serve: replica needs net, chip and policy")
	}
	if err := rc.Chip.MapNetwork(rc.Net); err != nil {
		return nil, fmt.Errorf("serve: map network: %w", err)
	}
	rc.Net.SetFabric(rc.Chip)
	rep := &Replica{
		net:       rc.Net,
		chip:      rc.Chip,
		policy:    rc.Policy,
		endurance: rc.Endurance,
		faultRNG:  tensor.NewRNG(rc.FaultSeed),
	}
	if rep.endurance != nil {
		rep.endurance.Obs = cfg.Obs
	}
	// Deploy under the serving trigger: this chip's whole life is
	// forward-only traffic, so the policy's initial placement must already
	// protect the forward phase (Static/Remap-D put forward tasks on the
	// cleanest crossbars instead of training's backward-first order).
	rep.mctx = &remap.Context{
		Chip:    rc.Chip,
		RNG:     rep.faultRNG,
		Epoch:   0,
		Trigger: remap.TriggerServing,
		Obs:     cfg.Obs,
	}
	rc.Policy.Deploy(rep.mctx)
	return rep, nil
}

// Chip exposes the replica's chip (tests inject targeted faults on it).
func (rep *Replica) Chip() *arch.Chip { return rep.chip }

// Rounds returns how many maintenance rounds (BIST scans) have run.
func (rep *Replica) Rounds() int { return rep.round }

// forwardXbars appends the crossbars currently hosting forward-phase
// tasks to dst — the arrays traffic actually reads, hence both the wear
// targets and the scan set.
func (rep *Replica) forwardXbars(dst []int) []int {
	dst = dst[:0]
	for xi := range rep.chip.Xbars {
		if t := rep.chip.TaskOf(xi); t != nil && t.Phase == arch.Forward {
			dst = append(dst, xi)
		}
	}
	return dst
}

// Stats is the Server's cumulative serving state, snapshotted by the
// /status section.
type Stats struct {
	Requests        int64   `json:"requests"`
	Batches         int64   `json:"batches"`
	DeadlineFlushes int64   `json:"deadline_flushes"`
	BISTScans       int64   `json:"bist_scans"`
	MaintainRounds  int64   `json:"maintain_rounds"`
	OnlineSwaps     int64   `json:"online_swaps"`
	OnlineSenders   int64   `json:"online_senders"`
	WearFaults      int64   `json:"wear_faults"`
	AccuracyWindow  float64 `json:"accuracy_window"`
	AccuracyTotal   float64 `json:"accuracy_total"`
	MeanDensity     float64 `json:"mean_density"`
	P99LatencyTicks float64 `json:"p99_latency_ticks"`
	Tick            uint64  `json:"tick"`
	Chips           int     `json:"chips"`
}

// Server is the request-batching scheduler over a pool of replicas.
// Batches are dispatched round-robin across the pool. All methods are
// mutex-guarded so the HTTP front end and a traffic driver can share one
// instance; determinism holds for any single-submitter schedule.
type Server struct {
	cfg  Config
	reps []*Replica

	mu       sync.Mutex
	queue    []*Request
	next     int // round-robin replica cursor
	ws       nn.Workspace
	scratch  []int
	latency  *obs.Histogram // internal mirror for p99 (always on)
	correct  int64
	pipeFill int
	stats    Stats
}

// New builds a server over the replica pool.
func New(cfg Config, reps []*Replica) (*Server, error) {
	if cfg.BatchMax < 1 {
		return nil, fmt.Errorf("serve: BatchMax must be >= 1, got %d", cfg.BatchMax)
	}
	if cfg.WritesPerBatch < 0 {
		return nil, fmt.Errorf("serve: WritesPerBatch must be >= 0, got %d", cfg.WritesPerBatch)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("serve: need at least one replica")
	}
	if cfg.InC <= 0 || cfg.InH <= 0 || cfg.InW <= 0 {
		return nil, fmt.Errorf("serve: input geometry %dx%dx%d invalid", cfg.InC, cfg.InH, cfg.InW)
	}
	if cfg.Timing.StageCyclesMVM == 0 {
		cfg.Timing = arch.DefaultTimingModel()
	}
	s := &Server{
		cfg:     cfg,
		reps:    reps,
		latency: obs.NewHistogram(LatencyBuckets),
	}
	s.stats.Chips = len(reps)
	// Forward-only pipeline depth: one stage per MVM layer.
	s.pipeFill = len(reps[0].net.MVMLayers()) * cfg.Timing.StageCyclesMVM
	if reg, ok := cfg.Obs.(interface{ Registry() *obs.Registry }); ok {
		reg.Registry().DeclareHistogram("serve.latency.ticks", LatencyBuckets)
		reg.Registry().DeclareHistogram("serve.batch.size", BatchSizeBuckets)
	}
	return s, nil
}

// Submit enqueues one request, flushing first if the newcomer's arrival
// proves the current batch's max-wait deadline expired, and after
// enqueueing if the batch is full. Arrival ticks must be non-decreasing.
func (s *Server) Submit(r *Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) > 0 && s.cfg.BatchWait > 0 && r.Arrival >= s.queue[0].Arrival+s.cfg.BatchWait {
		s.stats.DeadlineFlushes++
		s.flushLocked(s.queue[0].Arrival + s.cfg.BatchWait)
	}
	s.queue = append(s.queue, r)
	if r.Arrival > s.stats.Tick {
		s.stats.Tick = r.Arrival
	}
	if len(s.queue) >= s.cfg.BatchMax {
		s.flushLocked(r.Arrival)
	}
}

// Flush executes any partially filled batch at its max-wait deadline —
// the end-of-stream drain.
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return
	}
	close := s.queue[0].Arrival + s.cfg.BatchWait
	if last := s.queue[len(s.queue)-1].Arrival; close < last {
		close = last
	}
	s.flushLocked(close)
}

// flushLocked executes the queued batch on the next replica. closeTick is
// the simulated tick the scheduler sealed the batch.
func (s *Server) flushLocked(closeTick uint64) {
	reqs := s.queue
	if len(reqs) == 0 {
		return
	}
	s.queue = reqs[len(reqs):]
	rep := s.reps[s.next]
	s.next = (s.next + 1) % len(s.reps)

	n := len(reqs)
	imgLen := s.cfg.InC * s.cfg.InH * s.cfg.InW
	x := s.ws.Take("x", n, s.cfg.InC, s.cfg.InH, s.cfg.InW)
	for i, r := range reqs {
		if len(r.Image) != imgLen {
			panic(fmt.Sprintf("serve: request image has %d values, want %d", len(r.Image), imgLen))
		}
		copy(x.Data[i*imgLen:(i+1)*imgLen], r.Image)
	}
	logits := rep.net.Infer(x)

	// Pipeline timing: the batch starts when both the scheduler seals it
	// and the chip is free (maintenance may have pushed busyUntil past the
	// close tick), fills the forward pipeline once, then streams one
	// sample per stage cycle.
	start := closeTick
	if rep.busyUntil > start {
		start = rep.busyUntil
	}
	completion := start + uint64(s.pipeFill) + uint64(n*s.cfg.Timing.StageCyclesMVM)
	rep.busyUntil = completion
	if completion > s.stats.Tick {
		s.stats.Tick = completion
	}

	for i, r := range reqs {
		r.Class = logits.ArgMaxRow(i)
		r.Completion = completion
		lat := float64(completion - r.Arrival)
		s.latency.Observe(lat)
		if s.cfg.Obs != nil {
			s.cfg.Obs.Observe("serve.latency.ticks", lat)
		}
		if r.Label >= 0 {
			rep.winTotal++
			if r.Class == r.Label {
				rep.winCorrect++
				s.correct++
			}
		}
	}
	s.stats.Requests += int64(n)
	s.stats.Batches++
	rep.served += n
	rep.sinceScan += n
	if s.cfg.Obs != nil {
		s.cfg.Obs.Add("serve.requests", int64(n))
		s.cfg.Obs.Add("serve.batches", 1)
		s.cfg.Obs.Observe("serve.batch.size", float64(n))
	}

	// Wear: the arrays read by this batch absorb refresh writes.
	if s.cfg.WritesPerBatch > 0 {
		s.scratch = rep.forwardXbars(s.scratch)
		for _, xi := range s.scratch {
			for w := 0; w < s.cfg.WritesPerBatch; w++ {
				rep.chip.Xbars[xi].RecordWrite()
			}
		}
	}

	if s.cfg.BISTEvery > 0 && rep.sinceScan >= s.cfg.BISTEvery {
		rep.sinceScan = 0
		s.scanLocked(rep)
	}
	s.refreshGaugesLocked()

	// The batch's backing array becomes the next queue, so steady-state
	// enqueueing does not regrow it; clearing drops the finished requests.
	clear(reqs)
	s.queue = reqs[:0]
}

// scanLocked runs one online maintenance round on rep: materialise the
// wear implied by the traffic so far, BIST the forward-task crossbars,
// and — on a BIST failure — invoke the policy's phase-agnostic Maintain
// with the serving trigger.
func (s *Server) scanLocked(rep *Replica) {
	rep.round++
	s.stats.BISTScans++

	// Publish the rolling accuracy window against the current wear level
	// before this round's faults land: the drift-vs-wear signal.
	if rep.winTotal > 0 {
		s.stats.AccuracyWindow = float64(rep.winCorrect) / float64(rep.winTotal)
		if s.cfg.Obs != nil {
			s.cfg.Obs.Set("serve.accuracy.window", s.stats.AccuracyWindow)
		}
	}
	rep.winTotal, rep.winCorrect = 0, 0

	if rep.endurance != nil {
		rep.endurance.SimEpoch = rep.round
		injected := rep.endurance.Apply(rep.chip.Xbars, rep.faultRNG)
		if injected > 0 {
			rep.chip.InvalidateAll()
			s.stats.WearFaults += int64(injected)
			if s.cfg.Obs != nil {
				s.cfg.Obs.Add("serve.wear.faults", int64(injected))
			}
		}
	}

	// Online BIST over the forward-task (serving-critical) crossbars. A
	// density estimate above the threshold is a BIST failure.
	ctrl := bist.NewController(rep.chip.Params)
	ctrl.Obs, ctrl.SimEpoch = s.cfg.Obs, rep.round
	failed := false
	s.scratch = rep.forwardXbars(s.scratch)
	for _, xi := range s.scratch {
		res := ctrl.Run(rep.chip.Xbars[xi])
		if res.DensityEstimate > s.cfg.Threshold {
			failed = true
		}
	}
	scanCycles := bist.CyclesPerPass(rep.chip.Params) * rep.chip.Geom.XbarsPerIMA
	rep.busyUntil += uint64(scanCycles)
	if s.cfg.Obs != nil {
		s.cfg.Obs.Add("serve.bist.scans", 1)
		s.cfg.Obs.Add("serve.bist.cycles", int64(scanCycles))
	}
	if !failed {
		return
	}

	// BIST failure: run the policy's maintenance step under the serving
	// trigger. For Remap-D this re-tests, then swaps hot forward tasks
	// onto the cleanest idle backward-task crossbars.
	rep.mctx.Epoch = rep.round
	rep.mctx.Trigger = remap.TriggerServing
	repOut := rep.policy.Maintain(rep.mctx)
	rep.busyUntil += uint64(repOut.BISTCycles) + uint64(repOut.NoCCycles)
	s.stats.MaintainRounds++
	s.stats.OnlineSwaps += int64(repOut.Swaps)
	s.stats.OnlineSenders += int64(repOut.Senders)
	if s.cfg.Obs != nil {
		s.cfg.Obs.Add("serve.maintain.rounds", 1)
		s.cfg.Obs.Add("serve.remap.swaps", int64(repOut.Swaps))
		s.cfg.Obs.Add("serve.remap.senders", int64(repOut.Senders))
		s.cfg.Obs.Add("serve.remap.unmatched", int64(repOut.Unmatched))
		s.cfg.Obs.Emit(&obs.ReportEvent{
			Epoch:       rep.round,
			Policy:      rep.policy.Name(),
			Senders:     repOut.Senders,
			Swaps:       repOut.Swaps,
			Unmatched:   repOut.Unmatched,
			BISTCycles:  repOut.BISTCycles,
			NoCCycles:   repOut.NoCCycles,
			Protected:   repOut.Protected,
			MeanDensity: repOut.MeanDensity,
		})
	}
}

// refreshGaugesLocked recomputes the derived SLO gauges.
func (s *Server) refreshGaugesLocked() {
	if s.stats.Requests > 0 {
		s.stats.AccuracyTotal = float64(s.correct) / float64(s.stats.Requests)
	}
	// Ascending crossbar index within each replica, replica by replica:
	// the summation order fixes MeanDensity's bits. The walk over every
	// crossbar allocates nothing, and TrueDensity is an O(1) read.
	total, used := 0.0, 0
	for _, rep := range s.reps {
		for xi := range rep.chip.Xbars {
			if rep.chip.TaskOf(xi) != nil {
				total += rep.chip.TrueDensity(xi)
				used++
			}
		}
	}
	if used > 0 {
		s.stats.MeanDensity = total / float64(used)
	}
	s.stats.P99LatencyTicks = s.latency.Quantile(0.99)
	if s.cfg.Obs != nil {
		s.cfg.Obs.Set("serve.accuracy.total", s.stats.AccuracyTotal)
		s.cfg.Obs.Set("serve.wear.mean_density", s.stats.MeanDensity)
		s.cfg.Obs.Set("serve.latency.p99_ticks", s.stats.P99LatencyTicks)
		s.cfg.Obs.Set("serve.ticks", float64(s.stats.Tick))
	}
}

// InputLen returns the per-request image volume (C·H·W).
func (s *Server) InputLen() int { return s.cfg.InC * s.cfg.InH * s.cfg.InW }

// Stats returns a snapshot of the cumulative serving state.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// StatusSection is the /status registry hook ("serve" section).
func (s *Server) StatusSection() interface{} { return s.Stats() }
