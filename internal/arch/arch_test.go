package arch

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"remapd/internal/nn"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

func smallChip(size int, g Geometry) *Chip {
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = size
	return NewChip(p, g)
}

func TestGeometryCounts(t *testing.T) {
	g := DefaultGeometry()
	if g.Crossbars() != 8*8*4*8 {
		t.Fatalf("Crossbars = %d", g.Crossbars())
	}
	if g.Tiles() != 64 {
		t.Fatalf("Tiles = %d", g.Tiles())
	}
}

func TestTileTopology(t *testing.T) {
	c := smallChip(16, Geometry{TilesX: 4, TilesY: 4, IMAsPerTile: 2, XbarsPerIMA: 2})
	// 4 crossbars per tile.
	if c.TileOf(0) != 0 || c.TileOf(3) != 0 || c.TileOf(4) != 1 {
		t.Fatal("TileOf wrong")
	}
	if c.IMAOf(0) != 0 || c.IMAOf(2) != 1 {
		t.Fatal("IMAOf wrong")
	}
	x, y := c.TileCoord(5)
	if x != 1 || y != 1 {
		t.Fatalf("TileCoord(5) = (%d,%d)", x, y)
	}
	// Crossbar 0 is in tile 0 (0,0); crossbar 4*15 is in tile 15 (3,3).
	if got := c.HopCount(0, 60); got != 6 {
		t.Fatalf("HopCount = %d, want 6", got)
	}
	if c.HopCount(0, 1) != 0 {
		t.Fatal("same-tile hop count must be 0")
	}
}

func buildNet(rng *tensor.RNG) *nn.Network {
	// fc1: 20→12 (W 12×20), fc2: 12→4 (W 4×12).
	return nn.NewNetwork(
		nn.NewLinear("fc1", 20, 12, rng),
		nn.NewReLU("r"),
		nn.NewLinear("fc2", 12, 4, rng),
	)
}

func TestMapNetworkTaskInventory(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := buildNet(rng)
	c := smallChip(16, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	// fc1 W is 12×20 on 16-sized arrays: forward 1×2=2 blocks, backward
	// (20×12) 2×1=2 blocks. fc2 W is 4×12: 1 fwd + 1 bwd. Total 6 tasks.
	if len(c.Tasks) != 6 {
		t.Fatalf("task count %d, want 6", len(c.Tasks))
	}
	fwd, bwd := 0, 0
	for _, task := range c.Tasks {
		if task.Phase == Forward {
			fwd++
		} else {
			bwd++
		}
		if task.Rows*task.Cols > 16*16 {
			t.Fatalf("task %d exceeds crossbar capacity", task.ID)
		}
	}
	if fwd != 3 || bwd != 3 {
		t.Fatalf("fwd=%d bwd=%d, want 3/3", fwd, bwd)
	}
	// Task.LayerID numbers the layers in network order.
	for _, task := range c.Tasks {
		if want := map[string]int{"fc1": 0, "fc2": 1}[task.Layer]; task.LayerID != want {
			t.Fatalf("task %d of %s has LayerID %d, want %d", task.ID, task.Layer, task.LayerID, want)
		}
	}
	if got := len(c.MappedXbars()); got != 6 {
		t.Fatalf("mapped crossbars %d, want 6", got)
	}
	// Initial programming charges one write per hosting crossbar.
	for _, xi := range c.MappedXbars() {
		if c.Xbars[xi].Writes() != 1 {
			t.Fatalf("crossbar %d writes=%d, want 1", xi, c.Xbars[xi].Writes())
		}
	}
}

// TestMapNetworkTwiceFails: a chip hosts one network. Mapping a second
// one is an error that leaves the task table and the placement as they were.
func TestMapNetworkTwiceFails(t *testing.T) {
	rng := tensor.NewRNG(12)
	c := smallChip(16, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(buildNet(rng)); err != nil {
		t.Fatal(err)
	}
	tasks, mapping := slices.Clone(c.Tasks), c.Mapping()
	if err := c.MapNetwork(buildNet(rng)); err == nil {
		t.Fatal("second MapNetwork succeeded")
	}
	if !slices.Equal(c.Tasks, tasks) || !slices.Equal(c.Mapping(), mapping) {
		t.Fatal("failed MapNetwork changed the chip")
	}
}

func TestMapNetworkInsufficientCapacity(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := buildNet(rng)
	c := smallChip(16, Geometry{TilesX: 1, TilesY: 1, IMAsPerTile: 1, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestEffectiveWeightsCleanChipQuantisesOnly(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	w := net.LayerWeight("fc1")
	eff := c.EffectiveForward("fc1", w)
	if !eff.SameShape(w) {
		t.Fatalf("effective shape %v", eff.Shape)
	}
	clip := float64(w.AbsMax()) * clipFactor // the layer's coding range
	step := 2 * clip / float64(c.Params.Levels-1)
	for i := range w.Data {
		if math.Abs(float64(eff.Data[i]-w.Data[i])) > step/2+1e-6 {
			t.Fatalf("clean-chip deviation beyond quantisation at %d: %v vs %v", i, eff.Data[i], w.Data[i])
		}
	}
}

func TestForwardFaultAffectsOnlyForwardCopy(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	// Find the forward task of fc2 and stick cell (1, 2) of its crossbar.
	var fwdXbar, bwdXbar int = -1, -1
	for _, task := range c.Tasks {
		if task.Layer == "fc2" {
			if task.Phase == Forward {
				fwdXbar = c.XbarOf(task.ID)
			} else {
				bwdXbar = c.XbarOf(task.ID)
			}
		}
	}
	if fwdXbar < 0 || bwdXbar < 0 {
		t.Fatal("fc2 tasks not found")
	}
	c.Xbars[fwdXbar].InjectFaultPolar(1, 2, reram.SA1, true, rng)

	w := net.LayerWeight("fc2") // 4×12
	fwd := c.EffectiveForward("fc2", w)
	bwd := c.EffectiveBackward("fc2", w)
	clip := float64(w.AbsMax())

	// Forward copy: W[1][2] must be clamped high (SA1 in G⁺ → ≈ +2·clip).
	if float64(fwd.At(1, 2)) < 0.99*clip {
		t.Fatalf("forward W[1][2] = %v, want ≈ +clip %v", fwd.At(1, 2), clip)
	}
	// Backward copy must be unaffected at that element.
	if math.Abs(float64(bwd.At(1, 2)-w.At(1, 2))) > 0.1*clip {
		t.Fatalf("backward copy perturbed by forward fault: %v vs %v", bwd.At(1, 2), w.At(1, 2))
	}
}

func TestBackwardFaultTransposedIndexing(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	var bwdXbar int = -1
	for _, task := range c.Tasks {
		if task.Layer == "fc2" && task.Phase == Backward {
			bwdXbar = c.XbarOf(task.ID)
		}
	}
	// Backward task tiles Wᵀ (12×4). Cell (r=3, c=1) of the block holds
	// Wᵀ[3][1] = W[1][3]. Under offset coding SA0 reads back near −clip.
	c.Xbars[bwdXbar].InjectFault(3, 1, reram.SA0, rng)
	w := net.LayerWeight("fc2")
	bwd := c.EffectiveBackward("fc2", w)
	clip := float64(w.AbsMax())
	if float64(bwd.At(1, 3)) > -0.99*clip {
		t.Fatalf("backward W[1][3] = %v, want ≈ −clip", bwd.At(1, 3))
	}
	fwd := c.EffectiveForward("fc2", w)
	if math.Abs(float64(fwd.At(1, 3)-w.At(1, 3))) > 0.1*clip {
		t.Fatal("forward copy perturbed by backward fault")
	}
}

func TestWeightsWrittenAccountsAndInvalidates(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	w := net.LayerWeight("fc1")
	_ = c.EffectiveForward("fc1", w) // populate cache
	before := c.Xbars[c.XbarOf(0)].Writes()

	clip := float64(w.AbsMax()) * 2 // fixed coding range from mapping time
	w.Data[0] = 999                 // mutate then notify
	c.WeightsWritten("fc1")
	after := c.Xbars[c.XbarOf(0)].Writes()
	if after != before+1 {
		t.Fatalf("write not accounted: %d -> %d", before, after)
	}
	eff := c.EffectiveForward("fc1", w)
	// The cache must refresh, and the out-of-range weight must saturate at
	// the fixed conductance coding range rather than track 999.
	if float64(eff.Data[0]) < 0.9*clip {
		t.Fatalf("cache not refreshed after write: %v", eff.Data[0])
	}
	if float64(eff.Data[0]) > 1.3*clip {
		t.Fatalf("stored weight must saturate at the coding range: %v vs clip %v", eff.Data[0], clip)
	}
}

func TestSwapTasksExchangesMapping(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	xa, xb := c.XbarOf(0), c.XbarOf(1)
	ta, tb := c.TaskOf(xa), c.TaskOf(xb)
	c.SwapTasks(xa, xb)
	if c.TaskOf(xa) != tb || c.TaskOf(xb) != ta {
		t.Fatal("tasks not exchanged")
	}
	if c.XbarOf(ta.ID) != xb || c.XbarOf(tb.ID) != xa {
		t.Fatal("reverse mapping not updated")
	}
}

func TestSwapMovesFaultExposure(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	// Stick the whole crossbar hosting fc2's forward task, then swap that
	// task away to a clean crossbar: the forward copy must become clean.
	var fwdTask *Task
	for _, task := range c.Tasks {
		if task.Layer == "fc2" && task.Phase == Forward {
			fwdTask = task
		}
	}
	faulty := c.XbarOf(fwdTask.ID)
	for r := 0; r < 4; r++ {
		for col := 0; col < 12; col++ {
			c.Xbars[faulty].InjectFaultPolar(r, col, reram.SA1, true, rng)
		}
	}
	w := net.LayerWeight("fc2")
	eff := c.EffectiveForward("fc2", w)
	clip := float64(w.AbsMax())
	if float64(eff.At(0, 0)) < 0.99*clip {
		t.Fatal("precondition: forward copy should be clamped")
	}

	// Swap with another mapped crossbar that is clean (fc1's first task).
	clean := c.XbarOf(0)
	c.SwapTasks(faulty, clean)
	eff = c.EffectiveForward("fc2", w)
	if math.Abs(float64(eff.At(0, 0)-w.At(0, 0))) > 0.1*clip {
		t.Fatalf("after remap the forward copy must be clean: %v vs %v", eff.At(0, 0), w.At(0, 0))
	}
}

func TestSwapTasksRequiresMappedCrossbars(t *testing.T) {
	c := smallChip(32, Geometry{TilesX: 1, TilesY: 1, IMAsPerTile: 1, XbarsPerIMA: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.SwapTasks(0, 1)
}

func TestUnmappedLayerPassesThrough(t *testing.T) {
	c := smallChip(32, Geometry{TilesX: 1, TilesY: 1, IMAsPerTile: 1, XbarsPerIMA: 4})
	w := tensor.New(3, 3)
	if c.EffectiveForward("ghost", w) != w || c.EffectiveBackward("ghost", w) != w {
		t.Fatal("unmapped layers must pass through unchanged")
	}
	c.WeightsWritten("ghost") // must not panic
}

// Integration: training through a clean chip must reach near-ideal
// accuracy (quantisation alone is benign), and faults on the backward-copy
// crossbars must corrupt upstream gradients while leaving the ideal-fabric
// gradient definition intact.
func TestChipFabricEndToEndTraining(t *testing.T) {
	rng := tensor.NewRNG(9)
	build := func() *nn.Network {
		r := tensor.NewRNG(42)
		return nn.NewNetwork(
			nn.NewLinear("fc1", 2, 16, r),
			nn.NewReLU("r1"),
			nn.NewLinear("fc2", 16, 2, r),
		)
	}

	// Clean chip: near-ideal accuracy.
	netClean := build()
	chip := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 4})
	if err := chip.MapNetwork(netClean); err != nil {
		t.Fatal(err)
	}
	netClean.SetFabric(chip)
	dataRNG := tensor.NewRNG(7)
	sample := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 2)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			a, b := dataRNG.NormFloat64(), dataRNG.NormFloat64()
			x.Data[i*2], x.Data[i*2+1] = float32(a), float32(b)
			if a+b > 0 {
				labels[i] = 1
			}
		}
		return x, labels
	}
	opt := nn.NewSGD(netClean, 0.1, 0.9)
	for it := 0; it < 150; it++ {
		x, l := sample(32)
		logits := netClean.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, l)
		netClean.Backward(grad)
		opt.Step()
	}
	x, l := sample(512)
	if acc := nn.Accuracy(netClean.Forward(x, false), l); acc < 0.93 {
		t.Fatalf("clean-chip accuracy %.3f, want ≥0.93", acc)
	}

	// Gradient corruption: compute fc1's gradient on one fixed batch with a
	// clean chip and with a chip whose fc2 backward crossbar is faulty.
	gradFC1 := func(faulty bool) *tensor.Tensor {
		net := build()
		c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 4})
		if err := c.MapNetwork(net); err != nil {
			t.Fatal(err)
		}
		if faulty {
			for _, task := range c.Tasks {
				if task.Layer == "fc2" && task.Phase == Backward {
					xb := c.Xbars[c.XbarOf(task.ID)]
					for k := 0; k < 12; k++ { // partial, non-uniform corruption
						xb.InjectFault(rng.Intn(16), rng.Intn(2), reram.SA1, rng)
					}
				}
			}
		}
		net.SetFabric(c)
		bRNG := tensor.NewRNG(77)
		xb := tensor.New(16, 2)
		bRNG.FillNormal(xb, 1)
		labels := make([]int, 16)
		for i := range labels {
			labels[i] = i % 2
		}
		logits := net.Forward(xb, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		net.Backward(grad)
		for _, p := range net.Params() {
			if p.Name == "fc1.w" {
				return p.Grad.Clone()
			}
		}
		t.Fatal("fc1.w not found")
		return nil
	}
	gClean := gradFC1(false)
	gFaulty := gradFC1(true)
	gDiff := gClean.Clone()
	gDiff.Sub(gFaulty)
	rel := gDiff.L2Norm() / (gClean.L2Norm() + 1e-12)
	if rel < 0.2 {
		t.Fatalf("backward faults barely changed fc1 gradient (rel=%v); fault path broken", rel)
	}
}

// TestWeightsWrittenNilRecorderZeroAlloc pins the telemetry cost contract
// on the training hot path: with no Recorder attached, the per-step
// WeightsWritten notification must not allocate at all — the disabled
// telemetry path is a single nil check.
func TestWeightsWrittenNilRecorderZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := buildNet(rng)
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.WeightsWritten("fc1")
	})
	if allocs != 0 {
		t.Fatalf("WeightsWritten with nil Recorder allocates %.1f times per call, want 0", allocs)
	}
}

// fabricStep maps one linear layer onto a chip with stuck cells on every
// crossbar, every other weight relocated and one ECC-correctable cell per
// crossbar, and returns one training step's fabric sequence for that
// layer: the clamped forward and backward weights, the gradient hijack, and
// the write notification that dirties the layer.
func fabricStep(tb testing.TB) func() {
	rng := tensor.NewRNG(10)
	net := nn.NewNetwork(nn.NewLinear("fc", 96, 64, rng))
	c := smallChip(32, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 4})
	if err := c.MapNetwork(net); err != nil {
		tb.Fatal(err)
	}
	for _, xi := range c.MappedXbars() {
		c.Xbars[xi].InjectFault(1, 1, reram.SA1, rng)
		c.Xbars[xi].InjectFault(5, 2, reram.SA0, rng)
	}
	w := net.LayerWeight("fc")
	var even []int
	for e := 0; e < w.Len(); e += 2 {
		even = append(even, e)
	}
	if _, err := c.SetRelocated(map[string][]int{"fc": even}); err != nil {
		tb.Fatal(err)
	}
	ecc := make([][]int, len(c.Xbars))
	for xi := range ecc {
		ecc[xi] = []int{1*c.Params.CrossbarSize + 1}
	}
	if err := c.SetCorrectable(ecc); err != nil {
		tb.Fatal(err)
	}
	grad := tensor.New(w.Shape...)
	grad.Fill(0.5)
	return func() {
		c.EffectiveForward("fc", w)
		c.EffectiveBackward("fc", w)
		c.TransformGradient("fc", grad)
		c.WeightsWritten("fc")
	}
}

// TestFabricStepZeroAlloc pins the per-step fabric sequence of a mapped
// layer on a faulty chip at zero allocations: every buffer the chip uses is
// built by MapNetwork.
func TestFabricStepZeroAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, fabricStep(t)); allocs != 0 {
		t.Fatalf("fabric step allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkFabricStep(b *testing.B) {
	step := fabricStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestMappingInstall checks SetMapping and RestoreMapping: a malformed
// assignment is rejected and leaves the mapping as it was; a valid one is
// installed, with SetMapping charging one write per moved task and
// RestoreMapping none.
func TestMappingInstall(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := buildNet(rng)
	c := smallChip(16, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	orig := c.Mapping()
	writes := func() (n uint64) {
		for _, x := range c.Xbars {
			n += x.Writes()
		}
		return n
	}
	free := -1
	for i := range c.Xbars {
		if c.TaskOf(i) == nil {
			free = i
			break
		}
	}
	for _, bad := range []struct {
		name string
		m    []int
	}{
		{"short", orig[:len(orig)-1]},
		{"negative", append([]int{-1}, orig[1:]...)},
		{"too large", append([]int{len(c.Xbars)}, orig[1:]...)},
		{"shared", append([]int{orig[1]}, orig[1:]...)},
	} {
		before := writes()
		if err := c.SetMapping(bad.m); err == nil {
			t.Fatalf("SetMapping accepted a %s mapping", bad.name)
		}
		if err := c.RestoreMapping(bad.m); err == nil {
			t.Fatalf("RestoreMapping accepted a %s mapping", bad.name)
		}
		if !slices.Equal(c.Mapping(), orig) || writes() != before {
			t.Fatalf("rejected %s mapping changed the chip", bad.name)
		}
	}

	// Move task 0 to an unused crossbar.
	moved := append([]int{free}, orig[1:]...)
	before := writes()
	if err := c.RestoreMapping(moved); err != nil {
		t.Fatal(err)
	}
	if writes() != before || c.XbarOf(0) != free || c.TaskOf(orig[0]) != nil || c.TaskOf(free).ID != 0 {
		t.Fatal("RestoreMapping must install the move without charging writes")
	}
	if err := c.SetMapping(orig); err != nil {
		t.Fatal(err)
	}
	if writes() != before+1 || c.XbarOf(0) != orig[0] || c.TaskOf(free) != nil {
		t.Fatal("SetMapping must install the move and charge one write")
	}
}

// TestCoverageSettersRejectMalformedInput: an unknown layer, an
// out-of-range element, a short ECC list or an out-of-range ECC cell is an
// error that leaves the coverage as it was.
func TestCoverageSettersRejectMalformedInput(t *testing.T) {
	c := smallChip(16, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(buildNet(tensor.NewRNG(13))); err != nil {
		t.Fatal(err)
	}
	rel := map[string][]int{"fc1": {0, 5}, "fc2": {47}}
	ecc := make([][]int, len(c.Xbars))
	ecc[3] = []int{0, 255}
	if _, err := c.SetRelocated(rel); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCorrectable(ecc); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]map[string][]int{
		"unknown layer":    {"fc1": {1}, "ghost": {0}},
		"element too big":  {"fc2": {48}},
		"negative element": {"fc1": {-1}},
	} {
		if _, err := c.SetRelocated(bad); err == nil {
			t.Errorf("SetRelocated accepted %s", name)
		}
	}
	for name, bad := range map[string][][]int{
		"short":        ecc[1:],
		"cell too big": append([][]int{{256}}, ecc[1:]...),
		"negative":     append([][]int{{-1}}, ecc[1:]...),
	} {
		if err := c.SetCorrectable(bad); err == nil {
			t.Errorf("SetCorrectable accepted %s", name)
		}
	}
	if !reflect.DeepEqual(c.Relocated(), rel) || !reflect.DeepEqual(c.Correctable(), ecc) {
		t.Fatal("a rejected coverage changed the chip")
	}
}

// TestEffectiveWeightsNeverStale drives a mapped chip through random
// sequences of everything its effective weights depend on — fault writes,
// heals, swaps, whole mappings, weight writes and both kinds of coverage —
// and after every step compares the fabric outputs, bit for bit, with a
// chip built fresh from the same weights, mapping, faults, write counts and
// coverage. Nothing tells the chip its cache is stale: fault writes must
// announce themselves through the crossbar versions. Cells program exactly
// (programming noise sigma = 0).
func TestEffectiveWeightsNeverStale(t *testing.T) {
	t.Run("sigma=0", effectiveWeightsNeverStale)
}

func effectiveWeightsNeverStale(t *testing.T) {
	c := propertyChip(t)
	layers := c.Layers()
	rng := tensor.NewRNG(99)

	fresh := func() *Chip {
		ref := propertyChip(t)
		for _, l := range layers {
			copy(ref.Weight(l).Data, c.Weight(l).Data)
		}
		if err := ref.RestoreMapping(c.Mapping()); err != nil {
			t.Fatal(err)
		}
		for xi, x := range c.Xbars {
			for _, i := range x.FaultCells() {
				ref.Xbars[xi].RestoreFault(i, x.StateAt(i), x.FaultG(i), x.FaultInPositive(i))
			}
			ref.Xbars[xi].RestoreWrites(x.Writes())
		}
		if _, err := ref.SetRelocated(c.Relocated()); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetCorrectable(c.Correctable()); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	steps := chipSteps(t, c, rng)
	seedFaults(c, rng)
	for i := 0; i < 400; i++ {
		step := steps[rng.Intn(len(steps))]
		step.do()
		ref := fresh()
		for _, l := range layers {
			w := c.Weight(l)
			if !sameBits(c.EffectiveForward(l, w), ref.EffectiveForward(l, ref.Weight(l))) {
				t.Fatalf("step %d (%s): %s forward weights are stale", i, step.name, l)
			}
			if !sameBits(c.EffectiveBackward(l, w), ref.EffectiveBackward(l, ref.Weight(l))) {
				t.Fatalf("step %d (%s): %s backward weights are stale", i, step.name, l)
			}
			grad, refGrad := tensor.New(w.Shape...), tensor.New(w.Shape...)
			rng.FillNormal(grad, 1)
			copy(refGrad.Data, grad.Data)
			c.TransformGradient(l, grad)
			ref.TransformGradient(l, refGrad)
			if !sameBits(grad, refGrad) {
				t.Fatalf("step %d (%s): %s gradient transform differs", i, step.name, l)
			}
		}
	}
}

// TestSparseRefreshMatchesDense checks the sparse deploy path (one
// quantise pass, then patches at the stuck and ECC-corrected cells) bit
// for bit against the dense per-cell clamp it replaced, and the stuck-list
// gradient hijack against the per-cell scan. It runs the random fault,
// heal, swap, mapping and weight-write sequences of
// TestEffectiveWeightsNeverStale with no coverage, with relocated
// coverage and with ECC coverage.
func TestSparseRefreshMatchesDense(t *testing.T) {
	for _, cover := range []string{"none", "SetRelocated", "SetCorrectable"} {
		t.Run(cover, func(t *testing.T) {
			c := propertyChip(t)
			rng := tensor.NewRNG(7)
			var steps []chipStep
			for _, st := range chipSteps(t, c, rng) {
				switch st.name {
				case "SetRelocated", "SetCorrectable":
					if st.name != cover {
						continue
					}
					st.do() // start covered
				}
				steps = append(steps, st)
			}
			seedFaults(c, rng)
			for i := 0; i < 400; i++ {
				step := steps[rng.Intn(len(steps))]
				step.do()
				for _, l := range c.Layers() {
					w := c.Weight(l)
					fwd, bwd := denseEffective(c, l)
					if !sameBits(c.EffectiveForward(l, w), fwd) {
						t.Fatalf("step %d (%s): %s forward weights differ from the dense clamp", i, step.name, l)
					}
					if !sameBits(c.EffectiveBackward(l, w), bwd) {
						t.Fatalf("step %d (%s): %s backward weights differ from the dense clamp", i, step.name, l)
					}
					grad, dense := tensor.New(w.Shape...), tensor.New(w.Shape...)
					rng.FillNormal(grad, 1)
					copy(dense.Data, grad.Data)
					c.TransformGradient(l, grad)
					denseTransformGradient(c, l, dense)
					if !sameBits(grad, dense) {
						t.Fatalf("step %d (%s): %s gradient differs from the dense scan", i, step.name, l)
					}
				}
			}
		})
	}
}

// propertyChip returns the chip the random-sequence properties drive:
// buildNet's two layers on 16×16 crossbars, so most blocks are partial
// and some stuck cells fall outside them.
func propertyChip(t testing.TB) *Chip {
	c := smallChip(16, Geometry{TilesX: 2, TilesY: 2, IMAsPerTile: 2, XbarsPerIMA: 2})
	if err := c.MapNetwork(buildNet(tensor.NewRNG(21))); err != nil { // same weights → same coding ranges
		t.Fatal(err)
	}
	return c
}

// seedFaults sticks up to 30 cells of every crossbar, so that most random
// steps touch a faulty cell.
func seedFaults(c *Chip, rng *tensor.RNG) {
	size := c.Params.CrossbarSize
	for _, x := range c.Xbars {
		for f := 0; f < 30; f++ {
			x.InjectFault(rng.Intn(size), rng.Intn(size), reram.CellState(1+rng.Intn(2)), rng)
		}
	}
}

type chipStep struct {
	name string
	do   func()
}

// chipSteps returns one random operation of each kind a mapped chip's
// effective weights depend on, drawing from rng.
func chipSteps(t testing.TB, c *Chip, rng *tensor.RNG) []chipStep {
	size := c.Params.CrossbarSize
	layers := c.Layers()
	randomCells := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(size * size)
		}
		return out
	}

	return []chipStep{
		{"InjectFault", func() {
			x := c.Xbars[rng.Intn(len(c.Xbars))]
			x.InjectFault(rng.Intn(size), rng.Intn(size), reram.CellState(rng.Intn(3)), rng)
		}},
		{"RestoreFault", func() {
			x := c.Xbars[c.XbarOf(rng.Intn(len(c.Tasks)))]
			x.RestoreFault(rng.Intn(size*size), reram.CellState(1+rng.Intn(2)), 1e-5*(1+rng.Float64()), rng.Intn(2) == 0)
		}},
		{"HealAll", func() { c.Xbars[c.XbarOf(rng.Intn(len(c.Tasks)))].HealAll() }},
		{"SwapTasks", func() {
			used := c.MappedXbars()
			a, b := used[rng.Intn(len(used))], used[rng.Intn(len(used))]
			if a != b {
				c.SwapTasks(a, b)
			}
		}},
		{"RestoreMapping", func() {
			perm := rng.Perm(len(c.Xbars))
			if err := c.RestoreMapping(perm[:len(c.Tasks)]); err != nil {
				t.Fatal(err)
			}
		}},
		{"WeightsWritten", func() {
			l := layers[rng.Intn(len(layers))]
			w := c.Weight(l)
			w.Data[rng.Intn(w.Len())] = float32(rng.NormFloat64())
			c.WeightsWritten(l)
		}},
		{"SetRelocated", func() {
			rel := map[string][]int{}
			for _, l := range layers {
				if rng.Intn(2) == 0 {
					for _, e := range randomCells(1 + rng.Intn(40)) {
						rel[l] = append(rel[l], e%c.Weight(l).Len())
					}
				}
			}
			if _, err := c.SetRelocated(rel); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetCorrectable", func() {
			ecc := make([][]int, len(c.Xbars))
			for xi := range ecc {
				if rng.Intn(2) == 0 {
					ecc[xi] = randomCells(1 + rng.Intn(40))
				}
			}
			if err := c.SetCorrectable(ecc); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

func sameBits(a, b *tensor.Tensor) bool {
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// denseEffective is the deploy path the sparse refresh replaced, kept as
// its oracle. It clamps every cell of every task's block (the quantised
// weight on a healthy cell, the stuck read-back on a stuck one), walking a
// backward block's rows as strided columns of W. Then an O(cells) scan
// restores the relocated elements, and the ECC restores its cells.
func denseEffective(c *Chip, layer string) (fwd, bwd *tensor.Tensor) {
	ml := c.byName[layer]
	w, q, cols := ml.w, ml.quant, ml.cols
	fwd, bwd = tensor.New(w.Shape...), tensor.New(w.Shape...)
	for _, t := range ml.tasks {
		xi := c.xbarOfTask[t.ID]
		x := c.Xbars[xi]
		eff := fwd
		if t.Phase == Forward {
			for i := 0; i < t.Rows; i++ {
				off := (t.RowOff+i)*cols + t.ColOff
				clampRowInto(x, q, eff.Data[off:], w.Data[off:], 1, i, t.Cols)
			}
		} else {
			eff = bwd
			for i := 0; i < t.Rows; i++ {
				off := t.ColOff*cols + t.RowOff + i
				clampRowInto(x, q, eff.Data[off:], w.Data[off:], cols, i, t.Cols)
			}
		}
		if ml.relocated != nil {
			for i := 0; i < t.Rows; i++ {
				for j := 0; j < t.Cols; j++ {
					if x.State(i, j) == reram.Healthy {
						continue
					}
					if elem := ml.elementOf(t, i, j); ml.relocated[elem] {
						eff.Data[elem] = float32(q.Quantize(float64(w.Data[elem])))
					}
				}
			}
		}
		for _, cell := range c.correctable[xi] {
			i, j := cell/x.Size, cell%x.Size
			if i >= t.Rows || j >= t.Cols || x.StateAt(cell) == reram.Healthy {
				continue
			}
			elem := ml.elementOf(t, i, j)
			eff.Data[elem] = float32(q.Quantize(float64(w.Data[elem])))
		}
	}
	return fwd, bwd
}

// clampRowInto clamps crossbar row `row` between strided views:
// dst[j·stride] receives the weight src[j·stride] reads back as through
// cell (row, j), for j in [0, ncols).
func clampRowInto(x *reram.Crossbar, q *reram.Quantizer, dst, src []float32, stride, row, ncols int) {
	for j := 0; j < ncols; j++ {
		w := float64(src[j*stride])
		if s := x.State(row, j); s == reram.Healthy {
			w = q.Quantize(w)
		} else {
			cell := row*x.Size + j
			w = x.Params.StuckWeightAs(s, x.FaultG(cell), x.FaultInPositive(cell), w, q.Clip())
		}
		dst[j*stride] = float32(w)
	}
}

// denseTransformGradient is the gradient hijack the stuck-list walk
// replaced, kept as its oracle: it checks the state of every cell of every
// backward block.
func denseTransformGradient(c *Chip, layer string, grad *tensor.Tensor) {
	ml := c.byName[layer]
	scale := float64(grad.AbsMax())
	if scale == 0 {
		return
	}
	for _, t := range ml.tasks {
		if t.Phase == Forward {
			continue
		}
		x := c.Xbars[c.xbarOfTask[t.ID]]
		for r := 0; r < t.Rows; r++ {
			for col := 0; col < t.Cols; col++ {
				st := x.State(r, col)
				if st == reram.Healthy {
					continue
				}
				elem := ml.elementOf(t, r, col)
				if ml.relocated != nil && ml.relocated[elem] {
					continue
				}
				cell := r*x.Size + col
				grad.Data[elem] = float32(c.Params.StuckWeightAs(
					st, x.FaultG(cell), x.FaultInPositive(cell), float64(grad.Data[elem]), scale))
			}
		}
	}
}
