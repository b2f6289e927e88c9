package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/models"
	"remapd/internal/nn"
	"remapd/internal/noc"
	"remapd/internal/obs"
	"remapd/internal/remap"
	"remapd/internal/tensor"
)

// tinyScale is the quick scale at half its width, so even VGG-19 fits on
// the quick chip.
func tinyScale() Scale {
	s := QuickScale()
	s.WidthScale /= 2
	return s
}

// faultyChip maps a tiny-scale model onto a fresh chip carrying the
// default regime's pre-deployment faults.
func faultyChip(t *testing.T, model string, seed uint64) (*nn.Network, *arch.Chip) {
	t.Helper()
	s := tinyScale()
	net, err := BuildModel(model, s, seed, 10)
	if err != nil {
		t.Fatal(err)
	}
	chip := NewChip(s)
	if err := chip.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	DefaultRegime().Pre.Inject(chip.Xbars, tensor.NewRNG(seed))
	net.SetFabric(chip)
	return net, chip
}

// checkBijection fails unless every task sits on exactly one crossbar and
// every hosting crossbar's task points back at it.
func checkBijection(t *testing.T, chip *arch.Chip, when string) {
	t.Helper()
	hosts := make([]int, len(chip.Tasks))
	for x := range chip.Xbars {
		task := chip.TaskOf(x)
		if task == nil {
			continue
		}
		if got := chip.XbarOf(task.ID); got != x {
			t.Fatalf("%s: crossbar %d hosts task %d, which maps to crossbar %d", when, x, task.ID, got)
		}
		hosts[task.ID]++
	}
	for id, n := range hosts {
		if n != 1 {
			t.Fatalf("%s: task %d is on %d crossbars", when, id, n)
		}
	}
}

// TestPoliciesKeepMappingBijective: whatever a chip policy does at deploy
// time and at maintenance, during training or under serving traffic, the
// task↔crossbar mapping stays a bijection.
func TestPoliciesKeepMappingBijective(t *testing.T) {
	reg := DefaultRegime()
	moved := map[string]bool{}
	for _, model := range models.Names() {
		for _, policy := range PolicyNames() {
			if policy == "ideal" {
				continue
			}
			for _, deploy := range []remap.Trigger{remap.TriggerDeploy, remap.TriggerServing} {
				_, chip := faultyChip(t, model, 1)
				initial := chip.Mapping()
				pol, trackGrads, err := PolicyByName(policy, reg)
				if err != nil {
					t.Fatal(err)
				}
				nocCfg, err := noc.CMeshForTiles(chip.Geom.TilesX, chip.Geom.TilesY)
				if err != nil {
					t.Fatal(err)
				}
				rng := tensor.NewRNG(2)
				ctx := &remap.Context{Chip: chip, RNG: rng, Trigger: deploy, NoCCfg: nocCfg, Protocol: noc.DefaultProtocolParams()}
				when := model + "/" + policy + " deploy(" + deploy.String() + ")"
				pol.Deploy(ctx)
				checkBijection(t, chip, when)
				for _, trig := range []remap.Trigger{remap.TriggerEpoch, remap.TriggerServing} {
					reg.Post.InjectEpoch(chip.Xbars, rng)
					ctx.Trigger, ctx.GradAbs = trig, nil
					if trackGrads && trig == remap.TriggerEpoch {
						ctx.GradAbs = map[string]*tensor.Tensor{}
						for _, layer := range chip.Layers() {
							g := tensor.New(chip.Weight(layer).Shape...)
							rng.FillNormal(g, 1)
							ctx.GradAbs[layer] = g
						}
					}
					pol.Maintain(ctx)
					checkBijection(t, chip, when+" maintain("+trig.String()+")")
				}
				if !slices.Equal(chip.Mapping(), initial) {
					moved[policy] = true
				}
			}
		}
	}
	// The placement policies must actually have moved tasks, or the
	// property above was checked on untouched mappings only.
	for _, policy := range []string{"static", "remap-d"} {
		if !moved[policy] {
			t.Errorf("%s never moved a task", policy)
		}
	}
}

// TestInferMatchesForwardEvalOnEveryModel: Network.Infer is bit-identical
// to Forward(x, false) on every registered model running on a faulty chip,
// residual blocks and Fire modules included.
func TestInferMatchesForwardEvalOnEveryModel(t *testing.T) {
	for _, model := range models.Names() {
		net, _ := faultyChip(t, model, 3)
		s := tinyScale()
		x := tensor.New(2, 3, s.ImgSize, s.ImgSize)
		tensor.NewRNG(4).FillNormal(x, 1)
		net.Forward(x, true) // non-trivial BatchNorm running statistics
		want := slices.Clone(net.Forward(x, false).Data)
		got := net.Infer(x).Data
		if len(got) != len(want) {
			t.Fatalf("%s: Infer returned %d values, Forward %d", model, len(got), len(want))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: Infer diverges from Forward(x, false) at %d: %v vs %v", model, i, got[i], want[i])
			}
		}
	}
}

// swapProbe is an obs.Recorder that hands every SwapEvent to check at the
// moment Maintain emits it, right after the swap it describes.
type swapProbe struct{ check func(*obs.SwapEvent) }

func (swapProbe) Add(string, int64)       {}
func (swapProbe) Set(string, float64)     {}
func (swapProbe) Observe(string, float64) {}
func (p swapProbe) Emit(ev obs.Event) {
	if sw, ok := ev.(*obs.SwapEvent); ok {
		p.check(sw)
	}
}

// TestRemapDSwapsMoveCriticalTasksToCleanerCrossbars: every swap Remap-D's
// Maintain makes, on every model, under the training and the serving
// trigger, sensing by BIST estimate or by ground truth, takes a task of
// the critical phase (backward in training, forward under serving) from
// an over-threshold crossbar to one whose density is strictly lower and
// within the threshold.
func TestRemapDSwapsMoveCriticalTasksToCleanerCrossbars(t *testing.T) {
	reg := DefaultRegime()
	for _, trig := range []remap.Trigger{remap.TriggerEpoch, remap.TriggerServing} {
		crit := arch.Backward
		if trig == remap.TriggerServing {
			crit = arch.Forward
		}
		for _, useBIST := range []bool{true, false} {
			swaps := 0
			for _, model := range models.Names() {
				_, chip := faultyChip(t, model, 5)
				rd := remap.NewRemapD()
				rd.Threshold, rd.UseBIST = reg.RemapThreshold, useBIST
				rng := tensor.NewRNG(6)
				ctx := &remap.Context{Chip: chip, RNG: rng}
				rd.Deploy(ctx)
				when := fmt.Sprintf("%s maintain(%s) bist=%v", model, trig, useBIST)
				ctx.Trigger = trig
				ctx.Obs = swapProbe{check: func(ev *obs.SwapEvent) {
					swaps++
					if !(ev.ReceiverDensity < ev.SenderDensity) || ev.ReceiverDensity > rd.Threshold || ev.SenderDensity <= rd.Threshold {
						t.Errorf("%s: swap %d→%d with densities %g→%g (threshold %g)",
							when, ev.Sender, ev.Receiver, ev.SenderDensity, ev.ReceiverDensity, rd.Threshold)
					}
					if moved := chip.TaskOf(ev.Receiver); moved == nil || moved.Phase != crit {
						t.Errorf("%s: swap %d→%d moved %+v, want a %v task", when, ev.Sender, ev.Receiver, moved, crit)
					}
				}}
				for round := 0; round < 3; round++ {
					ctx.Epoch = round
					reg.Post.InjectEpoch(chip.Xbars, rng)
					rd.Maintain(ctx)
				}
			}
			if swaps == 0 {
				t.Errorf("trigger %s bist=%v: Remap-D never swapped; the property was checked on nothing", trig, useBIST)
			}
		}
	}
}
