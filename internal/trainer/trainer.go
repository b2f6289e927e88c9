// Package trainer orchestrates fault-aware CNN training on the RCS: the
// per-epoch loop of (train batches → endurance wear-out → BIST + policy
// action → evaluation) that the paper's experiments are built from.
package trainer

import (
	"context"
	"fmt"
	"math"
	"strings"

	"remapd/internal/arch"
	"remapd/internal/dataset"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/noc"
	"remapd/internal/obs"
	"remapd/internal/remap"
	"remapd/internal/tensor"
)

// PhaseInjection describes the targeted fault injection of the Fig. 5
// experiment: a fixed fault density applied only to the crossbars hosting
// tasks of one phase.
type PhaseInjection struct {
	Phase   arch.Phase
	Density float64
}

// Config drives one training run.
type Config struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	Seed        uint64

	// Chip, when non-nil, executes the network's MVMs; nil trains on the
	// ideal digital fabric (the paper's "ideal" rows).
	Chip *arch.Chip
	// Policy is the fault-tolerance scheme (nil = remap.None).
	Policy remap.Policy
	// Pre/Post enable pre-deployment and per-epoch post-deployment fault
	// injection on the chip.
	Pre  *fault.PreProfile
	Post *fault.PostModel
	// Endurance, when non-nil, derives wear-out failures physically from
	// each crossbar's accumulated write count (Weibull lifetimes) instead
	// of (or in addition to) the phenomenological Post model.
	Endurance *fault.EnduranceModel
	// PhaseInject applies the Fig. 5 targeted injection at deployment.
	PhaseInject *PhaseInjection

	// TrackGradAbs accumulates per-weight |gradient| each epoch (required
	// by Remap-T-n%; costs one pass over the parameters per step).
	TrackGradAbs bool
	// SimulateNoC runs the flit-level handshake for every remap round.
	SimulateNoC bool
	// Obs, when non-nil, records the run's simulation telemetry: epoch
	// norms, policy reports, swap/density/wear events. Recording is pure
	// observation keyed by simulated coordinates; a nil Obs produces
	// bit-identical results with zero overhead beyond nil checks.
	Obs obs.Recorder
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
	// Checkpoint, when non-nil, persists the run state after every epoch
	// and resumes from the latest usable snapshot, making the run
	// crash-safe: an interrupted cell continues bit-identically.
	Checkpoint CheckpointHook
	// Ctx, when non-nil, cancels the run: Train returns Ctx.Err() at the
	// next batch boundary once the context is done. The experiment runner
	// uses this to stop in-flight cells on the first error or SIGINT.
	Ctx context.Context
}

// DefaultConfig returns the reproduction-scale training hyperparameters.
func DefaultConfig() Config {
	return Config{
		Epochs:    10,
		BatchSize: 32,
		LR:        0.05,
		Momentum:  0.9,
		Seed:      1,
	}
}

// Result summarises a run.
type Result struct {
	Policy string
	Epochs int

	EpochTestAcc []float64
	TrainLoss    []float64
	FinalTestAcc float64
	BestTestAcc  float64

	Senders, Swaps, Unmatched int
	BISTCyclesTotal           int64
	NoCCyclesTotal            int64
	FaultsInjected            int
	FinalMeanDensity          float64
}

// Train runs the full loop and returns the result. The network must be
// freshly constructed (weights at initialisation).
func Train(net *nn.Network, ds *dataset.Dataset, cfg Config) (*Result, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("trainer: bad config: %d epochs, batch %d", cfg.Epochs, cfg.BatchSize)
	}
	if ds.TrainLen()/cfg.BatchSize == 0 {
		// TrainBatches drops partial batches, so fewer samples than one
		// batch means zero training steps per epoch — reject up front
		// instead of panicking on an empty loss curve later.
		return nil, fmt.Errorf("trainer: dataset has %d training samples, fewer than one batch of %d",
			ds.TrainLen(), cfg.BatchSize)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = remap.None{}
	}
	res := &Result{Policy: pol.Name(), Epochs: cfg.Epochs}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	trainRNG := tensor.NewRNG(cfg.Seed)
	faultRNG := tensor.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15)

	var ctx *remap.Context
	if cfg.Chip != nil {
		if err := cfg.Chip.MapNetwork(net); err != nil {
			return nil, err
		}
		net.SetFabric(cfg.Chip)
		nocCfg, err := noc.CMeshForTiles(cfg.Chip.Geom.TilesX, cfg.Chip.Geom.TilesY)
		if err != nil {
			return nil, err
		}
		ctx = &remap.Context{
			Chip:        cfg.Chip,
			RNG:         faultRNG,
			GradAbs:     map[string]*tensor.Tensor{},
			NoCCfg:      nocCfg,
			Protocol:    noc.DefaultProtocolParams(),
			SimulateNoC: cfg.SimulateNoC,
			Obs:         cfg.Obs,
		}
		cfg.Chip.Obs = cfg.Obs
		if cfg.Endurance != nil {
			cfg.Endurance.Obs = cfg.Obs
		}
	}
	observer := newEpochObserver(cfg.Obs, net)

	opt := nn.NewSGD(net, cfg.LR, cfg.Momentum, cfg.WeightDecay)

	// Everything above is a pure function of the configuration — mapping,
	// seeding, and optimizer construction consume no random draws. A
	// checkpoint therefore only has to restore the *mutable* state on top:
	// weights, optimizer, RNG streams, chip faults/wear, policy state.
	startEpoch, resumed := 0, false
	var ckptState *TrainState
	if cfg.Checkpoint != nil {
		ckptState = &TrainState{
			Net:       net,
			Opt:       opt,
			TrainRNG:  trainRNG,
			FaultRNG:  faultRNG,
			Chip:      cfg.Chip,
			Endurance: cfg.Endurance,
			Policy:    pol,
			Result:    res,
		}
		ep, ok, err := cfg.Checkpoint.Resume(ckptState)
		if err != nil {
			return nil, fmt.Errorf("trainer: checkpoint resume: %w", err)
		}
		if ok && ep > cfg.Epochs {
			return nil, fmt.Errorf("trainer: checkpoint claims %d completed epochs but config trains %d", ep, cfg.Epochs)
		}
		startEpoch, resumed = ep, ok
	}
	if resumed {
		if cfg.Chip != nil {
			// Faults, mapping, and write counters were restored directly;
			// the policy only needs to reinstall its runtime hooks.
			if ra, okRA := pol.(remap.Reattacher); okRA {
				ra.Reattach(ctx)
			}
			cfg.Chip.InvalidateAll()
		}
		logf("resumed from checkpoint: %d/%d epochs done", startEpoch, cfg.Epochs)
	} else if cfg.Chip != nil {
		// Fresh deployment. The order (pre-profile, targeted phase
		// injection, policy deploy) fixes the faultRNG draw sequence, so
		// every fresh run of a configuration is bit-identical.
		if cfg.Pre != nil {
			res.FaultsInjected += cfg.Pre.Inject(cfg.Chip.Xbars, faultRNG)
			cfg.Chip.InvalidateAll()
		}
		if cfg.PhaseInject != nil {
			res.FaultsInjected += injectPhase(cfg.Chip, cfg.PhaseInject, faultRNG)
		}
		// Deploy-time telemetry is stamped epoch −1, separating the t=0
		// placement's events from those of the first epoch boundary.
		ctx.Epoch = -1
		pol.Deploy(ctx)
	}
	// Step decay: halve the learning rate at 60% and 85% of the schedule
	// (the usual CIFAR recipe, and what lets training compensate static
	// forward-path faults).
	decayAt := map[int]bool{cfg.Epochs * 6 / 10: true, cfg.Epochs * 85 / 100: true}

	mvmSet := map[string]bool{}
	for _, l := range net.MVMLayers() {
		mvmSet[l] = true
	}

	// Loss-gradient scratch, reused across batches (the last partial batch
	// reshapes it smaller; Take handles the size change in place).
	var lossWS nn.Workspace

	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		if epoch > 0 && decayAt[epoch] {
			opt.LR /= 2
		}
		if ctx != nil {
			ctx.Epoch = epoch
			if cfg.TrackGradAbs {
				resetGradAbs(ctx, net, mvmSet)
			}
		}
		if cfg.Endurance != nil {
			cfg.Endurance.SimEpoch = epoch
		}
		observer.beginEpoch()
		faultsBefore := res.FaultsInjected
		var lossSum float64
		batches := ds.TrainBatches(cfg.BatchSize, trainRNG)
		for _, b := range batches {
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, err
			}
			loss := trainStep(net, &lossWS, b)
			if !math.IsNaN(loss) && !math.IsInf(loss, 0) {
				lossSum += loss
			}
			if ctx != nil && cfg.TrackGradAbs {
				accumulateGradAbs(ctx, net, mvmSet)
			}
			opt.Step()
			observer.afterBatch()
		}
		// The up-front dataset check guarantees at least one batch.
		avgLoss := lossSum / float64(len(batches))
		res.TrainLoss = append(res.TrainLoss, avgLoss)

		// Endurance wear-out from this epoch's writes.
		if cfg.Chip != nil && cfg.Post != nil {
			res.FaultsInjected += cfg.Post.InjectEpoch(cfg.Chip.Xbars, faultRNG)
			cfg.Chip.InvalidateAll()
		}
		if cfg.Chip != nil && cfg.Endurance != nil {
			res.FaultsInjected += cfg.Endurance.Apply(cfg.Chip.Xbars, faultRNG)
			cfg.Chip.InvalidateAll()
		}
		acc := Evaluate(net, ds, cfg.BatchSize)
		// Epoch-boundary BIST + policy action, after evaluation and before
		// the next epoch's weight updates (the paper's trigger point): a
		// task moved now gets a full epoch of training before it is next
		// measured.
		if ctx != nil {
			ctx.Trigger = remap.TriggerEpoch
			rep := pol.Maintain(ctx)
			res.Senders += rep.Senders
			res.Swaps += rep.Swaps
			res.Unmatched += rep.Unmatched
			res.BISTCyclesTotal += int64(rep.BISTCycles)
			res.NoCCyclesTotal += int64(rep.NoCCycles)
			observer.recordReport(epoch, pol.Name(), rep)
		}
		observer.endEpoch(epoch, avgLoss, acc, cfg.Chip, res.FaultsInjected-faultsBefore)
		res.EpochTestAcc = append(res.EpochTestAcc, acc)
		if acc > res.BestTestAcc {
			res.BestTestAcc = acc
		}
		logf("epoch %2d: loss=%.4f acc=%.4f", epoch+1, avgLoss, acc)
		if cfg.Checkpoint != nil {
			// Persist the epoch boundary before starting the next epoch;
			// a crash from here on resumes at epoch+1 bit-identically.
			if err := cfg.Checkpoint.Save(ckptState, epoch+1); err != nil {
				return nil, fmt.Errorf("trainer: checkpoint save after epoch %d: %w", epoch+1, err)
			}
		}
		if f, ok := cfg.Obs.(obs.Flusher); ok {
			// Stream the epoch's telemetry out with the checkpoint: a crash
			// from here on loses at most the next epoch's events, and the
			// recorder's buffer stays bounded at one epoch.
			if err := f.Flush(); err != nil {
				return nil, fmt.Errorf("trainer: flush telemetry after epoch %d: %w", epoch+1, err)
			}
		}
	}
	res.FinalTestAcc = res.EpochTestAcc[len(res.EpochTestAcc)-1]
	if cfg.Chip != nil {
		res.FinalMeanDensity = fault.Collect(cfg.Chip.Xbars).MeanDensity
	}
	return res, nil
}

// ctxErr reports a done context (nil ctx never cancels).
// trainStep runs one batch through the network: forward pass, loss and
// gradient into the reused workspace buffer, backward pass. This is the
// per-batch hot path the zero-allocation contract protects; everything
// it reaches (layers, tensor kernels, the ReRAM clamp path) is annotated
// //lint:hotpath and machine-checked.
//
//lint:hotpath
func trainStep(net *nn.Network, lossWS *nn.Workspace, b dataset.Batch) float64 {
	logits := net.Forward(b.X, true)
	grad := lossWS.Take("grad", logits.Dim(0), logits.Dim(1))
	loss := nn.SoftmaxCrossEntropyInto(grad, logits, b.Y)
	net.Backward(grad)
	return loss
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Evaluate returns the test-set accuracy of the network in eval mode.
func Evaluate(net *nn.Network, ds *dataset.Dataset, batchSize int) float64 {
	correct, total := 0, 0
	for _, b := range ds.TestBatches(batchSize) {
		logits := net.Forward(b.X, false)
		for i := range b.Y {
			if logits.ArgMaxRow(i) == b.Y[i] {
				correct++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// injectPhase applies a fixed fault density to every crossbar hosting a
// task of the given phase. The density is relative to the cells the task
// actually occupies (in the paper's setup crossbars are fully utilised, so
// crossbar density and weight-level fault rate coincide; here blocks can
// under-fill an array and the weight-level rate is what the experiment
// controls).
func injectPhase(chip *arch.Chip, pi *PhaseInjection, rng *tensor.RNG) int {
	total := 0
	for _, xi := range chip.MappedXbars() {
		t := chip.TaskOf(xi)
		if t == nil || t.Phase != pi.Phase {
			continue
		}
		x := chip.Xbars[xi]
		n := int(pi.Density*float64(t.Rows*t.Cols) + 0.5)
		if n < 1 {
			n = 1
		}
		total += fault.InjectMixedRegion(x, n, 0.1, 0.5, 3, t.Rows, t.Cols, rng)
	}
	chip.InvalidateAll()
	return total
}

func resetGradAbs(ctx *remap.Context, net *nn.Network, mvm map[string]bool) {
	for _, p := range net.Params() {
		layer := strings.TrimSuffix(p.Name, ".w")
		if layer == p.Name || !mvm[layer] {
			continue
		}
		g := ctx.GradAbs[layer]
		if g == nil || !g.SameShape(p.W) {
			ctx.GradAbs[layer] = tensor.New(p.W.Shape...)
		} else {
			g.Zero()
		}
	}
}

func accumulateGradAbs(ctx *remap.Context, net *nn.Network, mvm map[string]bool) {
	for _, p := range net.Params() {
		layer := strings.TrimSuffix(p.Name, ".w")
		if layer == p.Name || !mvm[layer] {
			continue
		}
		acc := ctx.GradAbs[layer]
		for i, v := range p.Grad.Data {
			if v < 0 {
				acc.Data[i] -= v
			} else {
				acc.Data[i] += v
			}
		}
	}
}
