package remap

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/noc"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// testRig builds a small mapped chip with a 2-linear-layer network.
type testRig struct {
	chip *arch.Chip
	net  *nn.Network
	ctx  *Context
}

func newRig(t *testing.T, seed uint64) *testRig {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork(
		nn.NewLinear("fc1", 24, 16, rng),
		nn.NewReLU("r"),
		nn.NewLinear("fc2", 16, 8, rng),
	)
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = 32
	chip := arch.NewChip(p, arch.Geometry{TilesX: 4, TilesY: 4, IMAsPerTile: 1, XbarsPerIMA: 1})
	if err := chip.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	net.SetFabric(chip)
	cfg, err := noc.CMeshForTiles(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{
		chip: chip,
		net:  net,
		ctx: &Context{
			Chip:     chip,
			RNG:      rng,
			GradAbs:  map[string]*tensor.Tensor{},
			NoCCfg:   cfg,
			Protocol: noc.DefaultProtocolParams(),
		},
	}
}

func (r *testRig) backwardXbars() []int {
	var out []int
	for _, xi := range r.chip.MappedXbars() {
		if r.chip.TaskOf(xi).Phase == arch.Backward {
			out = append(out, xi)
		}
	}
	return out
}

func injectN(chip *arch.Chip, xbar, n int, rng *tensor.RNG) {
	fault.InjectMixed(chip.Xbars[xbar], n, 0.1, 0.5, 3, rng)
}

func TestNonePolicyIsInert(t *testing.T) {
	r := newRig(t, 1)
	before := make([]int, len(r.chip.Tasks))
	for i := range r.chip.Tasks {
		before[i] = r.chip.XbarOf(i)
	}
	p := None{}
	p.Deploy(r.ctx)
	rep := p.Maintain(r.ctx)
	if rep != (Report{}) {
		t.Fatalf("None reported %+v", rep)
	}
	for i := range r.chip.Tasks {
		if r.chip.XbarOf(i) != before[i] {
			t.Fatal("None must not move tasks")
		}
	}
}

func TestStaticPlacesBackwardOnCleanest(t *testing.T) {
	r := newRig(t, 2)
	// Fault half the mapped crossbars heavily.
	used := r.chip.MappedXbars()
	for i, xi := range used {
		if i%2 == 0 {
			injectN(r.chip, xi, 50, r.ctx.RNG)
		}
	}
	Static{}.Deploy(r.ctx)
	// Every backward task's crossbar must be cleaner than every forward
	// task's crossbar (backward got the cleanest pool).
	maxBwd, minFwd := -1.0, 2.0
	for _, xi := range r.chip.MappedXbars() {
		d := r.chip.TrueDensity(xi)
		if r.chip.TaskOf(xi).Phase == arch.Backward {
			if d > maxBwd {
				maxBwd = d
			}
		} else if d < minFwd {
			minFwd = d
		}
	}
	if maxBwd > minFwd {
		t.Fatalf("static placement wrong: worst backward density %v > best forward %v", maxBwd, minFwd)
	}
}

func TestRemapDSwapsFaultyBackwardAway(t *testing.T) {
	r := newRig(t, 3)
	pol := NewRemapD()
	bwd := r.backwardXbars()
	victim := bwd[0]
	injectN(r.chip, victim, 40, r.ctx.RNG) // ≈3.9% density, over threshold

	victimTask := r.chip.TaskOf(victim).ID
	rep := pol.Maintain(r.ctx)
	if rep.Senders != 1 || rep.Swaps != 1 {
		t.Fatalf("report %+v, want 1 sender, 1 swap", rep)
	}
	if rep.BISTCycles <= 0 {
		t.Fatal("BIST cycles not accounted")
	}
	// The backward task must have moved to a cleaner crossbar...
	newHome := r.chip.XbarOf(victimTask)
	if newHome == victim {
		t.Fatal("task did not move")
	}
	if r.chip.TrueDensity(newHome) >= r.chip.TrueDensity(victim) {
		t.Fatal("task moved to a dirtier crossbar")
	}
	// ...and the displaced task must be a forward task now on the victim.
	if got := r.chip.TaskOf(victim); got == nil || got.Phase != arch.Forward {
		t.Fatalf("victim crossbar now hosts %+v, want a forward task", got)
	}
}

func TestRemapDRespectsThreshold(t *testing.T) {
	r := newRig(t, 4)
	pol := NewRemapD()
	pol.Threshold = 0.05 // 5%
	bwd := r.backwardXbars()
	injectN(r.chip, bwd[0], 30, r.ctx.RNG) // ≈2.9% < threshold
	rep := pol.Maintain(r.ctx)
	if rep.Senders != 0 || rep.Swaps != 0 {
		t.Fatalf("below-threshold crossbar must not remap: %+v", rep)
	}
}

func TestRemapDFaultyForwardIsNotASender(t *testing.T) {
	r := newRig(t, 5)
	pol := NewRemapD()
	var fwd int = -1
	for _, xi := range r.chip.MappedXbars() {
		if r.chip.TaskOf(xi).Phase == arch.Forward {
			fwd = xi
			break
		}
	}
	injectN(r.chip, fwd, 60, r.ctx.RNG)
	rep := pol.Maintain(r.ctx)
	if rep.Senders != 0 {
		t.Fatalf("forward tasks are fault-tolerant and must not request remap: %+v", rep)
	}
}

func TestRemapDPicksNearestReceiver(t *testing.T) {
	r := newRig(t, 6)
	pol := NewRemapD()
	pol.UseBIST = false
	bwd := r.backwardXbars()
	sender := bwd[0]
	injectN(r.chip, sender, 40, r.ctx.RNG)

	// Find the nearest forward-hosting crossbar by hop count (ties by id,
	// matching the policy).
	bestHop, best := 1<<30, -1
	for _, xi := range r.chip.MappedXbars() {
		if r.chip.TaskOf(xi).Phase != arch.Forward {
			continue
		}
		h := r.chip.HopCount(sender, xi)
		if h < bestHop || (h == bestHop && xi < best) {
			bestHop, best = h, xi
		}
	}
	senderTask := r.chip.TaskOf(sender).ID
	pol.Maintain(r.ctx)
	if got := r.chip.XbarOf(senderTask); got != best {
		t.Fatalf("task moved to crossbar %d (hop %d), nearest receiver was %d (hop %d)",
			got, r.chip.HopCount(sender, got), best, bestHop)
	}
}

func TestRemapDUnmatchedWhenNoCleanerReceiver(t *testing.T) {
	r := newRig(t, 7)
	pol := NewRemapD()
	pol.UseBIST = false
	// Fault ALL crossbars equally badly: no receiver is strictly cleaner.
	for _, xi := range r.chip.MappedXbars() {
		injectN(r.chip, xi, 40, r.ctx.RNG)
	}
	rep := pol.Maintain(r.ctx)
	if rep.Senders == 0 {
		t.Fatal("senders expected")
	}
	if rep.Swaps+rep.Unmatched != rep.Senders {
		t.Fatalf("accounting broken: %+v", rep)
	}
	if rep.Unmatched == 0 {
		t.Fatalf("at least the worst-off sender cluster should fail to match: %+v", rep)
	}
}

func TestRemapDDeployHandlesPreDeploymentFaults(t *testing.T) {
	r := newRig(t, 8)
	bwd := r.backwardXbars()
	injectN(r.chip, bwd[0], 40, r.ctx.RNG)
	task := r.chip.TaskOf(bwd[0]).ID
	NewRemapD().Deploy(r.ctx)
	if r.chip.XbarOf(task) == bwd[0] {
		t.Fatal("Deploy must perform the initial remap round")
	}
}

func TestRemapDWithNoCSimulation(t *testing.T) {
	r := newRig(t, 9)
	r.ctx.SimulateNoC = true
	r.ctx.Protocol.WeightFlits = 64
	pol := NewRemapD()
	bwd := r.backwardXbars()
	injectN(r.chip, bwd[0], 40, r.ctx.RNG)
	rep := pol.Maintain(r.ctx)
	if rep.Swaps == 0 {
		t.Fatal("expected a swap")
	}
	if rep.NoCCycles <= 0 {
		t.Fatal("NoC handshake cycles not measured")
	}
}

func TestRemapTProtectsTopGradients(t *testing.T) {
	r := newRig(t, 10)
	pol := NewRemapT(0.10)
	pol.Deploy(r.ctx)

	// Build a gradient-importance profile concentrated on fc2 element 0.
	ga := map[string]*tensor.Tensor{}
	for _, layer := range r.chip.Layers() {
		w := r.chip.Weight(layer)
		g := tensor.New(w.Shape...)
		g.Fill(1) // uniform background importance
		ga[layer] = g
	}
	ga["fc2"].Data[0] = 100    // clearly most important
	ga["fc2"].Data[2*16+3] = 0 // element (2,3): least important
	r.ctx.GradAbs = ga
	prev := r.chip.Relocated()
	rep := pol.Maintain(r.ctx)

	// Swaps counts the weights newly moved onto spares, Protected the
	// whole relocated set.
	moved, total := 0, 0
	for layer, elems := range r.chip.Relocated() {
		total += len(elems)
		for _, e := range elems {
			if !slices.Contains(prev[layer], e) {
				moved++
			}
		}
	}
	if rep.Swaps != moved || rep.Protected != total || moved == 0 {
		t.Fatalf("report swaps=%d protected=%d, want %d newly relocated of %d", rep.Swaps, rep.Protected, moved, total)
	}

	// Fault the cell holding fc2 element 0 on the forward copy.
	var fwdTask *arch.Task
	for _, task := range r.chip.Tasks {
		if task.Layer == "fc2" && task.Phase == arch.Forward {
			fwdTask = task
		}
	}
	xb := r.chip.Xbars[r.chip.XbarOf(fwdTask.ID)]
	xb.InjectFaultPolar(0, 0, reram.SA1, true, r.ctx.RNG)
	// A second faulted cell holding a zero-importance element.
	xb.InjectFaultPolar(2, 3, reram.SA1, true, r.ctx.RNG)

	w := r.chip.Weight("fc2")
	eff := r.chip.EffectiveForward("fc2", w)
	clip := float64(w.AbsMax())
	if math.Abs(float64(eff.At(0, 0)-w.At(0, 0))) > 0.1*clip {
		t.Fatalf("protected weight corrupted: %v vs %v", eff.At(0, 0), w.At(0, 0))
	}
	if float64(eff.At(2, 3)) < 0.99*clip {
		t.Fatalf("unprotected weight should be clamped, got %v", eff.At(2, 3))
	}
}

func TestRemapWSMaskIsStatic(t *testing.T) {
	r := newRig(t, 11)
	// Make fc1 element 0 the largest weight at deploy time.
	w := r.chip.Weight("fc1")
	w.Data[0] = 10
	pol := NewRemapWS()
	pol.Deploy(r.ctx)

	snapshot := r.chip.Relocated()
	if fc1 := snapshot["fc1"]; len(fc1) == 0 || fc1[0] != 0 {
		t.Fatal("largest initial weight must be relocated")
	}
	// Gradients later shift importance elsewhere — Remap-WS must ignore it.
	ga := map[string]*tensor.Tensor{"fc2": tensor.New(r.chip.Weight("fc2").Shape...)}
	ga["fc2"].Data[5] = 1e6
	r.ctx.GradAbs = ga
	rep := pol.Maintain(r.ctx)
	if !reflect.DeepEqual(r.chip.Relocated(), snapshot) {
		t.Fatal("Remap-WS mask must never update after deployment")
	}
	if want := len(snapshot["fc1"]) + len(snapshot["fc2"]); rep.Protected != want {
		t.Fatalf("Protected = %d, want the %d relocated weights", rep.Protected, want)
	}
}

func TestANCodePolicyCorrectsAndLags(t *testing.T) {
	r := newRig(t, 12)
	pol := NewANCode()

	// Pre-deployment fault: single fault in its column → correctable after
	// Deploy's profiling.
	var fwdTask *arch.Task
	for _, task := range r.chip.Tasks {
		if task.Layer == "fc2" && task.Phase == arch.Forward {
			fwdTask = task
		}
	}
	xb := r.chip.Xbars[r.chip.XbarOf(fwdTask.ID)]
	xb.InjectFaultPolar(1, 1, reram.SA1, true, r.ctx.RNG)
	pol.Deploy(r.ctx)

	w := r.chip.Weight("fc2")
	clip := float64(w.AbsMax())
	eff := r.chip.EffectiveForward("fc2", w)
	if math.Abs(float64(eff.At(1, 1)-w.At(1, 1))) > 0.1*clip {
		t.Fatalf("known single-column fault must be corrected: %v vs %v", eff.At(1, 1), w.At(1, 1))
	}

	// New (post-deployment) fault: uncorrected until the next table refresh.
	xb.InjectFaultPolar(2, 2, reram.SA1, true, r.ctx.RNG)
	eff = r.chip.EffectiveForward("fc2", w)
	if float64(eff.At(2, 2)) < 0.99*clip {
		t.Fatalf("new fault must be uncorrected before refresh, got %v", eff.At(2, 2))
	}
	pol.Maintain(r.ctx)
	eff = r.chip.EffectiveForward("fc2", w)
	if math.Abs(float64(eff.At(2, 2)-w.At(2, 2))) > 0.1*clip {
		t.Fatal("fault must be corrected after table refresh")
	}

	// Overload one column beyond capability: both faults stay.
	xb.InjectFaultPolar(3, 4, reram.SA1, true, r.ctx.RNG)
	xb.InjectFaultPolar(5, 4, reram.SA1, true, r.ctx.RNG)
	pol.Maintain(r.ctx)
	eff = r.chip.EffectiveForward("fc2", w)
	if float64(eff.At(3, 4)) < 0.99*clip || float64(eff.At(5, 4)) < 0.99*clip {
		t.Fatal("two-fault column exceeds AN-code capability and must stay faulty")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"none":        None{},
		"static":      Static{},
		"remap-d":     NewRemapD(),
		"remap-t-5%":  NewRemapT(0.05),
		"remap-t-10%": NewRemapT(0.10),
		"remap-ws":    NewRemapWS(),
		"an-code":     NewANCode(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Fatalf("Name() = %q, want %q", p.Name(), want)
		}
	}
}
