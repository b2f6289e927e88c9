package trainer

import (
	"math"

	"remapd/internal/arch"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/obs"
	"remapd/internal/remap"
)

// epochObserver computes the per-epoch training-dynamics telemetry
// (gradient / weight-update / weight norms) and emits the EpochEvent.
// It is nil when no Recorder is configured; every method no-ops on a nil
// receiver, so the training loop carries exactly one pointer check per
// call site and an unobserved run does zero extra work.
//
// All quantities are pure functions of values the loop already computed
// — the observer reads weights and gradients but never writes, draws no
// random numbers, and therefore cannot perturb the run.
type epochObserver struct {
	rec obs.Recorder
	net *nn.Network

	// prev holds each parameter's values at epoch start (net.Params()
	// order, which is deterministic), for the weight-update norm.
	prev [][]float32
	// gradSq accumulates Σ‖∇‖² over the epoch's optimizer steps.
	gradSq float64
	steps  int
}

// newEpochObserver returns nil (a valid no-op observer) when rec is nil.
func newEpochObserver(rec obs.Recorder, net *nn.Network) *epochObserver {
	if rec == nil {
		return nil
	}
	return &epochObserver{rec: rec, net: net}
}

// beginEpoch snapshots the weights and resets the gradient accumulator.
func (o *epochObserver) beginEpoch() {
	if o == nil {
		return
	}
	o.gradSq, o.steps = 0, 0
	params := o.net.Params()
	if len(o.prev) != len(params) {
		o.prev = make([][]float32, len(params))
	}
	for i, p := range params {
		if len(o.prev[i]) != len(p.W.Data) {
			o.prev[i] = make([]float32, len(p.W.Data))
		}
		copy(o.prev[i], p.W.Data)
	}
}

// afterBatch folds one optimizer step's gradients into the epoch norm.
func (o *epochObserver) afterBatch() {
	if o == nil {
		return
	}
	o.steps++
	for _, p := range o.net.Params() {
		for _, v := range p.Grad.Data {
			o.gradSq += float64(v) * float64(v)
		}
	}
}

// endEpoch emits the epoch's EpochEvent and updates the training gauges.
// faultsInjected is this epoch's injection count (not the running total).
func (o *epochObserver) endEpoch(epoch int, loss, acc float64, chip *arch.Chip, faultsInjected int) {
	if o == nil {
		return
	}
	var weightSq, updateSq float64
	for i, p := range o.net.Params() {
		for j, v := range p.W.Data {
			weightSq += float64(v) * float64(v)
			d := float64(v) - float64(o.prev[i][j])
			updateSq += d * d
		}
	}
	ev := &obs.EpochEvent{
		Epoch:          epoch,
		Steps:          o.steps,
		Loss:           loss,
		TestAcc:        acc,
		GradNorm:       math.Sqrt(o.gradSq),
		UpdateNorm:     math.Sqrt(updateSq),
		WeightNorm:     math.Sqrt(weightSq),
		FaultsInjected: faultsInjected,
	}
	if chip != nil {
		ev.MeanDensity = fault.Collect(chip.Xbars).MeanDensity
		var maxWrites, totalWrites uint64
		for _, x := range chip.Xbars {
			w := x.Writes()
			totalWrites += w
			if w > maxWrites {
				maxWrites = w
			}
		}
		o.rec.Set("fault.mean_density", ev.MeanDensity)
		o.rec.Set("endurance.max_writes", float64(maxWrites))
		o.rec.Set("endurance.total_writes", float64(totalWrites))
	}
	o.rec.Emit(ev)
	o.rec.Add("train.steps", int64(o.steps))
	o.rec.Set("train.loss", loss)
	o.rec.Set("train.test_acc", acc)
}

// recordReport emits the policy's Report as a ReportEvent and rolls
// its counts into the remap counters. Summing the emitted Swaps over a
// trace reproduces Result.Swaps — the property the telemetry tests pin.
func (o *epochObserver) recordReport(epoch int, policy string, rep remap.Report) {
	if o == nil {
		return
	}
	o.rec.Emit(&obs.ReportEvent{
		Epoch:       epoch,
		Policy:      policy,
		Senders:     rep.Senders,
		Swaps:       rep.Swaps,
		Unmatched:   rep.Unmatched,
		BISTCycles:  rep.BISTCycles,
		NoCCycles:   rep.NoCCycles,
		Protected:   rep.Protected,
		MeanDensity: rep.MeanDensity,
	})
	o.rec.Add("remap.senders", int64(rep.Senders))
	o.rec.Add("remap.swaps", int64(rep.Swaps))
	o.rec.Add("remap.unmatched", int64(rep.Unmatched))
	o.rec.Add("remap.bist_cycles", int64(rep.BISTCycles))
	o.rec.Add("remap.noc_cycles", int64(rep.NoCCycles))
	o.rec.Set("remap.protected", float64(rep.Protected))
}
