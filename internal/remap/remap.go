// Package remap implements the paper's fault-tolerance policies: the
// proposed dynamic task remapping (Remap-D) and every baseline the
// evaluation compares against — no protection, fault-aware static mapping,
// weight-significance remapping (Remap-WS, [12]), gradient-ranked spare
// remapping (Remap-T-n%), and the AN-code ECC ([10], via internal/ancode).
//
// A policy interacts with the system at two points: Deploy (once, after the
// network is mapped and pre-deployment faults are present) and Maintain — a
// phase-agnostic maintenance step invoked whenever no compute is in flight
// and BIST results can be refreshed. The trainer invokes it at every epoch
// boundary (the paper's remap trigger point, with TriggerEpoch);
// internal/serve invokes it online, under live inference traffic, on a
// request-count / BIST-failure trigger.
package remap

import (
	"sort"

	"remapd/internal/ancode"
	"remapd/internal/arch"
	"remapd/internal/bist"
	"remapd/internal/det"
	"remapd/internal/noc"
	"remapd/internal/obs"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// Trigger identifies which execution phase invoked a maintenance step.
// It exists so a policy can know which task phase is latency/fault
// critical *right now*: during training the backward pass is the
// fault-critical computation (the paper's setting); during serving only
// forward tasks execute, so the criticality flips. Policies must not
// branch on Trigger in any other way — the epoch-boundary behaviour under
// TriggerEpoch is pinned byte-identical by the Fig. 5–8 tables.
type Trigger int

const (
	// TriggerDeploy marks the t=0 maintenance pass run from Deploy.
	TriggerDeploy Trigger = iota
	// TriggerEpoch marks a training epoch boundary (the paper's setting).
	TriggerEpoch
	// TriggerServing marks an online maintenance round under inference
	// traffic (request-count or BIST-failure triggered, no backward pass).
	TriggerServing
)

// String returns the trace-stable name of the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerDeploy:
		return "deploy"
	case TriggerEpoch:
		return "epoch"
	case TriggerServing:
		return "serving"
	}
	return "unknown"
}

// Context carries everything a policy may inspect or mutate.
type Context struct {
	Chip *arch.Chip
	RNG  *tensor.RNG

	// Epoch is the maintenance round index: the training epoch when
	// Trigger is TriggerEpoch, the online maintenance round when
	// TriggerServing. It keys every emitted event's simulated coordinate.
	Epoch int

	// Trigger records which phase invoked this maintenance step. The zero
	// value is TriggerDeploy; callers set it per invocation (the trainer
	// sets TriggerEpoch at every epoch boundary).
	Trigger Trigger

	// GradAbs accumulates, per MVM layer, the sum of |∂L/∂w| over the
	// epoch's optimizer steps (filled by the trainer). Remap-T-n% ranks
	// weight importance with it.
	GradAbs map[string]*tensor.Tensor

	// NoC configuration for remap-traffic accounting; SimulateNoC enables
	// the flit-level handshake simulation (slower, used by the overhead
	// experiments).
	NoCCfg      noc.Config
	Protocol    noc.ProtocolParams
	SimulateNoC bool

	// Obs receives the policy's telemetry (swap pairs, density fidelity)
	// when non-nil. Recording is pure observation: no policy decision may
	// read it, so a nil Obs is bit-identical to a recording run.
	Obs obs.Recorder
}

// Report summarises what a policy did in one maintenance step.
type Report struct {
	Senders    int // crossbars that requested remapping
	Swaps      int // task exchanges performed (Remap-T: weights newly relocated)
	Unmatched  int // senders that found no receiver
	BISTCycles int // ReRAM cycles spent on fault-density testing
	NoCCycles  int // NoC cycles of the remap handshake (0 if not simulated)

	// Protected counts elements currently shielded from faults: protected
	// weights for Remap-T/Remap-WS, correctable faulty cells for AN-code,
	// 0 for policies that move tasks instead of shielding elements.
	Protected int
	// MeanDensity is the mean fault density the policy observed across the
	// crossbars it inspected this step (0 if it inspected none).
	MeanDensity float64
}

// Policy is a fault-tolerance scheme.
type Policy interface {
	Name() string
	Deploy(ctx *Context)
	// Maintain runs one maintenance step: refresh fault knowledge (BIST),
	// re-protect or re-place tasks, and report what was done. It must be
	// safe to call from any phase described by ctx.Trigger.
	Maintain(ctx *Context) Report
}

// Resumable is implemented by policies carrying internal mutable state that
// cannot be reconstructed from the chip alone — e.g. Remap-T's
// gradient-ranked protection set, which derives from an epoch of gradients
// a resumed process never saw. PolicyState must be deterministic (a
// checkpoint of the same state is byte-identical) and RestorePolicyState
// must reject malformed input rather than install partial state.
type Resumable interface {
	PolicyState() ([]byte, error)
	RestorePolicyState(data []byte) error
}

// Reattacher is implemented by policies that must rebind to a restored
// chip when a checkpointed run resumes: reinstall cell correctors, rebuild
// tables derivable from the (already restored) crossbar fault state. The
// trainer calls Reattach instead of Deploy on the resume path — Deploy
// would redo the t=0 placement against the wrong densities.
type Reattacher interface {
	Reattach(ctx *Context)
}

// ---------------------------------------------------------------- None --

// None is the unprotected baseline.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Deploy implements Policy.
func (None) Deploy(*Context) {}

// Maintain implements Policy.
func (None) Maintain(*Context) Report { return Report{} }

// -------------------------------------------------------------- Static --

// Static performs one fault-aware mapping at t = 0: backward (least
// fault-tolerant) tasks are placed on the least-faulty crossbars, forward
// tasks on the rest. It never adapts afterwards, so post-deployment faults
// erode it — the paper's argument for *dynamic* remapping.
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Deploy sorts the originally used crossbars by measured density and
// assigns the fault-critical phase's tasks to the cleanest ones: backward
// tasks for a training deployment, forward tasks when the chip is
// deployed to serve (ctx.Trigger == TriggerServing).
func (Static) Deploy(ctx *Context) {
	chip := ctx.Chip
	crit := arch.Backward
	if ctx.Trigger == TriggerServing {
		crit = arch.Forward
	}
	used := chip.MappedXbars()
	sort.Slice(used, func(a, b int) bool {
		return chip.TrueDensity(used[a]) < chip.TrueDensity(used[b])
	})
	// Order tasks critical-phase first.
	order := make([]int, 0, len(chip.Tasks))
	for _, t := range chip.Tasks {
		if t.Phase == crit {
			order = append(order, t.ID)
		}
	}
	for _, t := range chip.Tasks {
		if t.Phase != crit {
			order = append(order, t.ID)
		}
	}
	assign := make([]int, len(chip.Tasks))
	for i, tid := range order {
		assign[tid] = used[i]
	}
	if err := chip.SetMapping(assign); err != nil {
		panic("remap: static mapping failed: " + err.Error())
	}
}

// Maintain does nothing — the mapping is static.
func (Static) Maintain(*Context) Report { return Report{} }

// -------------------------------------------------------------- RemapD --

// RemapD is the paper's proposed policy. At every maintenance step it runs
// the BIST pass on each crossbar, then crossbars whose fault density
// exceeds Threshold and which host a fault-critical task become senders;
// crossbars hosting tasks of the other (idle or fault-tolerant) phase with
// strictly lower density are potential receivers; each sender swaps tasks
// with its nearest (tile hop count) responding receiver. No spare hardware
// is used. Which phase is critical depends on the trigger: at training
// epoch boundaries the backward pass is fault-critical (the paper's
// setting); under serving traffic only forward tasks execute, so forward
// becomes critical and the idle backward crossbars act as the clean pool —
// the X-CHANGR-style serving-time adaptation.
type RemapD struct {
	// Threshold is the sender trigger density (paper: user-chosen; default
	// 0.4%, the boundary of the "hot crossbar" manufacturing band).
	Threshold float64
	// UseBIST selects density estimation through the BIST FSM (true, the
	// deployed configuration) or ground truth (false, an ablation).
	UseBIST bool
	// RandomReceiver picks a uniformly random eligible receiver instead of
	// the nearest one — an ablation of the proximity heuristic. Accuracy is
	// unaffected (any eligible receiver is clean enough); only NoC traffic
	// distance grows.
	RandomReceiver bool
}

// NewRemapD returns the default configuration.
func NewRemapD() *RemapD { return &RemapD{Threshold: 0.004, UseBIST: true} }

// Name implements Policy.
func (r *RemapD) Name() string { return "remap-d" }

// Deploy performs the fault-aware initial mapping (the paper's "static"
// t = 0 placement: backward tasks onto the cleanest crossbars, guided by
// the first post-programming BIST pass). The dynamic behaviour — reacting
// to post-deployment faults — then runs at every maintenance step via
// Maintain. Remap-D is strictly the static placement plus dynamics.
func (r *RemapD) Deploy(ctx *Context) {
	Static{}.Deploy(ctx)
	r.Maintain(ctx)
}

// Maintain implements the three-step protocol of Fig. 3 at the system
// level and (optionally) on the flit-level NoC.
func (r *RemapD) Maintain(ctx *Context) Report {
	chip := ctx.Chip
	rep := Report{}

	// The fault-critical phase is backward during training (gradient
	// outer products cannot tolerate stuck cells) and forward under
	// serving traffic, where backward crossbars sit idle as a clean pool.
	crit, spare := arch.Backward, arch.Forward
	if ctx.Trigger == TriggerServing {
		crit, spare = arch.Forward, arch.Backward
	}

	// Step 0: BIST every mapped crossbar to obtain fault densities. The
	// densities are kept in a slice indexed by crossbar id (not a map):
	// every later step walks crossbars in slice order, so no code path can
	// depend on map iteration order.
	used := chip.MappedXbars()
	density := make([]float64, len(chip.Xbars))
	if r.UseBIST {
		ctrl := bist.NewController(chip.Params)
		ctrl.Obs, ctrl.SimEpoch = ctx.Obs, ctx.Epoch
		for _, xi := range used {
			res := ctrl.Run(chip.Xbars[xi])
			density[xi] = res.DensityEstimate
		}
		// Crossbars within an IMA share one BIST controller and are tested
		// sequentially; IMAs run in parallel.
		rep.BISTCycles = bist.CyclesPerPass(chip.Params) * chip.Geom.XbarsPerIMA
	} else {
		for _, xi := range used {
			density[xi] = chip.TrueDensity(xi)
		}
	}
	if len(used) > 0 {
		total := 0.0
		for _, xi := range used {
			total += density[xi]
		}
		rep.MeanDensity = total / float64(len(used))
	}
	if ctx.Obs != nil {
		for _, xi := range used {
			ctx.Obs.Emit(&obs.DensityEvent{Epoch: ctx.Epoch, Xbar: xi, Estimate: density[xi], True: chip.TrueDensity(xi)})
			ctx.Obs.Observe("bist.density", density[xi])
		}
	}

	// Step 1: senders = over-threshold crossbars hosting critical tasks.
	var senders []int
	var receivers []int
	for _, xi := range used {
		t := chip.TaskOf(xi)
		if t == nil {
			continue
		}
		if t.Phase == crit && density[xi] > r.Threshold {
			senders = append(senders, xi)
		} else if t.Phase == spare {
			receivers = append(receivers, xi)
		}
	}
	rep.Senders = len(senders)
	if len(senders) == 0 {
		return rep
	}
	// Worst senders pick first.
	sort.Slice(senders, func(a, b int) bool { return density[senders[a]] > density[senders[b]] })

	// Step 2+3: nearest eligible receiver per sender, then swap. A
	// receiver must (a) be strictly cleaner than the sender and (b) itself
	// be within the acceptable-density threshold — otherwise the swap just
	// moves the fault-critical task onto another bad crossbar.
	taken := make([]bool, len(chip.Xbars))
	type swapPair struct{ s, r, hops int }
	var pairs []swapPair
	for _, s := range senders {
		var eligible []int
		for _, rx := range receivers {
			if taken[rx] || density[rx] >= density[s] || density[rx] > r.Threshold {
				continue
			}
			eligible = append(eligible, rx)
		}
		if len(eligible) == 0 {
			rep.Unmatched++
			continue
		}
		best := -1
		if r.RandomReceiver && ctx.RNG != nil {
			best = eligible[ctx.RNG.Intn(len(eligible))]
		} else {
			bestHop := 1 << 30
			for _, rx := range eligible {
				h := chip.HopCount(s, rx)
				if h < bestHop || (h == bestHop && rx < best) {
					best, bestHop = rx, h
				}
			}
		}
		taken[best] = true
		pairs = append(pairs, swapPair{s: s, r: best, hops: chip.HopCount(s, best)})
	}
	for _, pr := range pairs {
		chip.SwapTasks(pr.s, pr.r)
		if ctx.Obs != nil {
			ctx.Obs.Emit(&obs.SwapEvent{
				Epoch:           ctx.Epoch,
				Sender:          pr.s,
				Receiver:        pr.r,
				Hops:            pr.hops,
				SenderDensity:   density[pr.s],
				ReceiverDensity: density[pr.r],
			})
			ctx.Obs.Observe("remap.hops", float64(pr.hops))
		}
	}
	rep.Swaps = len(pairs)

	// Optional: replay the handshake on the flit-level NoC for cycle
	// accounting (tile-level endpoints; duplicate tiles collapse).
	if ctx.SimulateNoC && len(pairs) > 0 {
		senderTiles := dedupTiles(chip, senders)
		recvTiles := dedupTiles(chip, receivers)
		res := noc.SimulateRemap(ctx.NoCCfg, ctx.Protocol, senderTiles, recvTiles)
		rep.NoCCycles = res.TotalCycles
		res.Record(ctx.Obs, ctx.Epoch)
	}
	return rep
}

func dedupTiles(chip *arch.Chip, xbars []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, xi := range xbars {
		t := chip.TileOf(xi)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// -------------------------------------------------------------- RemapT --

// RemapT models Remap-T-n%: every epoch the top n% of weights ranked by
// accumulated gradient magnitude are preemptively remapped to spare
// fault-free crossbars — i.e. those weights are immune to faults — at the
// cost of n% extra hardware. At deploy time (no gradients yet) the ranking
// falls back to weight magnitude.
type RemapT struct {
	// Fraction is n/100 (0.05 and 0.10 in the paper's Fig. 6).
	Fraction  float64
	protected map[string]map[int]bool
}

// NewRemapT returns a Remap-T policy protecting the given fraction.
func NewRemapT(fraction float64) *RemapT { return &RemapT{Fraction: fraction} }

// Name implements Policy.
func (r *RemapT) Name() string {
	// Switch on the rounded percentage, not the float itself: exact float
	// equality on a configured fraction is the kind of comparison the
	// float-eq lint rule exists to keep out of this codebase.
	switch int(r.Fraction*100 + 0.5) {
	case 5:
		return "remap-t-5%"
	case 10:
		return "remap-t-10%"
	}
	return "remap-t"
}

// Deploy protects the initially largest weights and installs the corrector.
func (r *RemapT) Deploy(ctx *Context) {
	imp := map[string]*tensor.Tensor{}
	for _, layer := range ctx.Chip.Layers() {
		w := ctx.Chip.Weight(layer)
		a := tensor.New(w.Shape...)
		for i, v := range w.Data {
			if v < 0 {
				a.Data[i] = -v
			} else {
				a.Data[i] = v
			}
		}
		imp[layer] = a
	}
	r.rebuild(ctx, imp)
	r.install(ctx)
}

// Maintain re-ranks by the epoch's accumulated |grad| and rebuilds the
// protection set. The report counts the re-rank's churn: Swaps is the
// number of weights newly relocated onto spares this step (the scheme's
// per-epoch remapping work), Protected the resulting set size. With no
// accumulated gradients (e.g. under serving traffic) the existing
// protection set is kept as-is.
func (r *RemapT) Maintain(ctx *Context) Report {
	rep := Report{MeanDensity: meanMappedDensity(ctx.Chip)}
	if len(ctx.GradAbs) > 0 {
		prev := r.protected
		r.rebuild(ctx, ctx.GradAbs)
		ctx.Chip.InvalidateAll()
		rep.Swaps = relocations(r.protected, prev)
	}
	rep.Protected = protectedCount(r.protected)
	return rep
}

// rebuild selects the global top-Fraction elements by importance.
func (r *RemapT) rebuild(ctx *Context, importance map[string]*tensor.Tensor) {
	type scored struct {
		layer string
		idx   int
		v     float32
	}
	var all []scored
	// Sorted layer order: the sort below breaks score ties by slice
	// position, so the visit order here must be deterministic for the
	// protection set to be replayable.
	for _, layer := range det.SortedKeys(importance) {
		for i, v := range importance[layer].Data {
			all = append(all, scored{layer, i, v})
		}
	}
	k := int(r.Fraction * float64(len(all)))
	if k <= 0 {
		r.protected = map[string]map[int]bool{}
		return
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v > all[b].v })
	prot := map[string]map[int]bool{}
	for _, s := range all[:k] {
		m := prot[s.layer]
		if m == nil {
			m = map[int]bool{}
			prot[s.layer] = m
		}
		m[s.idx] = true
	}
	r.protected = prot
}

func (r *RemapT) install(ctx *Context) {
	chip := ctx.Chip
	// Relocation protection covers every path (the weight physically lives
	// on a fault-free spare cell).
	chip.SetCellCorrector(func(t *arch.Task, _ *reram.Crossbar, row, col int) bool {
		m := r.protected[t.Layer]
		if m == nil {
			return false
		}
		return m[chip.ElementOf(t, row, col)]
	}, true)
}

// -------------------------------------------------------------- RemapWS --

// RemapWS models the weight-significance scheme of [12]: the top 5% of
// weights by magnitude — determined once from the weights available at
// deployment, since the scheme presumes a pre-trained model — are remapped
// to fault-free columns. During from-scratch training the initial ranking
// is meaningless and 95% of faults go unaddressed, which is exactly the
// failure mode Fig. 6 shows.
type RemapWS struct {
	Fraction  float64
	protected map[string]map[int]bool
}

// NewRemapWS returns the 5% configuration of [12].
func NewRemapWS() *RemapWS { return &RemapWS{Fraction: 0.05} }

// Name implements Policy.
func (r *RemapWS) Name() string { return "remap-ws" }

// Deploy ranks by |w| at t=0 and installs a permanent protection mask.
func (r *RemapWS) Deploy(ctx *Context) {
	rt := &RemapT{Fraction: r.Fraction}
	imp := map[string]*tensor.Tensor{}
	for _, layer := range ctx.Chip.Layers() {
		w := ctx.Chip.Weight(layer)
		a := tensor.New(w.Shape...)
		for i, v := range w.Data {
			if v < 0 {
				a.Data[i] = -v
			} else {
				a.Data[i] = v
			}
		}
		imp[layer] = a
	}
	rt.rebuild(ctx, imp)
	r.protected = rt.protected
	chip := ctx.Chip
	chip.SetCellCorrector(func(t *arch.Task, _ *reram.Crossbar, row, col int) bool {
		m := r.protected[t.Layer]
		if m == nil {
			return false
		}
		return m[chip.ElementOf(t, row, col)]
	}, true)
}

// Maintain changes nothing — the significance snapshot is never updated —
// but still reports the (static) protection footprint and the chip's
// current density so traces show what the scheme is failing to track.
func (r *RemapWS) Maintain(ctx *Context) Report {
	return Report{
		Protected:   protectedCount(r.protected),
		MeanDensity: meanMappedDensity(ctx.Chip),
	}
}

// -------------------------------------------------------------- ANCode --

// ANCode wraps the arithmetic-code ECC baseline: the correction table is
// profiled at deployment and re-profiled at each epoch boundary, so faults
// that appear during an epoch are uncorrected until the next refresh, and
// columns with more faults than the code can absorb stay faulty.
type ANCode struct {
	corrector *ancode.Corrector
}

// NewANCode returns the baseline with the standard single-error code.
func NewANCode() *ANCode { return &ANCode{corrector: ancode.NewCorrector(ancode.NewCode())} }

// Name implements Policy.
func (a *ANCode) Name() string { return "an-code" }

// Deploy profiles the chip and installs the correction hook. The AN code
// corrects stored-codeword reads (forward and transpose weight paths) but
// cannot cover the gradient outer-product path, whose operands are not
// encoded.
func (a *ANCode) Deploy(ctx *Context) {
	a.corrector.RefreshTable(ctx.Chip.Xbars)
	ctx.Chip.SetCellCorrector(a.corrector.CellCorrector(), false)
}

// Maintain re-profiles the correction table. Protected reports how many
// of the profiled faulty cells the refreshed code can actually correct.
func (a *ANCode) Maintain(ctx *Context) Report {
	a.corrector.RefreshTable(ctx.Chip.Xbars)
	ctx.Chip.InvalidateAll()
	return Report{
		Protected:   a.corrector.CorrectableCount(),
		MeanDensity: meanMappedDensity(ctx.Chip),
	}
}

// ------------------------------------------------------------- helpers --

// protectedCount sizes a layer→elements protection set.
func protectedCount(prot map[string]map[int]bool) int {
	n := 0
	for _, m := range prot {
		n += len(m)
	}
	return n
}

// relocations counts elements protected now but not previously — the
// weights a re-rank physically moves onto spares.
func relocations(now, prev map[string]map[int]bool) int {
	n := 0
	for layer, m := range now {
		pm := prev[layer]
		for idx := range m {
			if !pm[idx] {
				n++
			}
		}
	}
	return n
}

// meanMappedDensity is the mean true fault density over the crossbars
// currently hosting tasks (0 when nothing is mapped).
func meanMappedDensity(chip *arch.Chip) float64 {
	used := chip.MappedXbars()
	if len(used) == 0 {
		return 0
	}
	total := 0.0
	for _, xi := range used {
		total += chip.TrueDensity(xi)
	}
	return total / float64(len(used))
}
