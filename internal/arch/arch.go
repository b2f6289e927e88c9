// Package arch models the target RCS (ReRAM crossbar-based computing
// system) architecture of the paper's Fig. 1: 128×128 crossbars grouped
// into IMAs (in-situ multiply-accumulate units, each with a BIST module and
// ADC/DAC/S&H/S&A peripherals), IMAs grouped into tiles (with eDRAM and
// pooling/activation units), and tiles arranged on a grid connected by a
// concentrated-mesh NoC.
//
// The package also defines the *task* abstraction of the paper: a task is
// the computation of one ≤128×128 block of a CNN layer's weight matrix in
// one training phase (forward or backward). Tasks are mapped onto physical
// crossbars; remapping policies permute that mapping. The Chip implements
// nn.Fabric, so a network bound to it executes its MVMs through the
// fault-clamped stored weights.
package arch

import (
	"fmt"
	"slices"

	"remapd/internal/det"
	"remapd/internal/nn"
	"remapd/internal/obs"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// Phase distinguishes the two training phases whose tasks have different
// inherent fault tolerance (Section III.B.2: backward ≪ forward).
type Phase int

// Task phases.
const (
	Forward Phase = iota
	Backward
)

// String names the phase.
func (p Phase) String() string {
	if p == Forward {
		return "forward"
	}
	return "backward"
}

// Task is the unit of remapping: one weight block of one layer in one
// phase. Forward tasks tile the layer's Out×In weight matrix; backward
// tasks tile its transpose (the physically separate Wᵀ copy used for error
// propagation).
type Task struct {
	ID      int
	Layer   string
	LayerID int // the layer's position in mapping (network) order
	Phase   Phase
	RowOff  int // block offset in the (possibly transposed) weight matrix
	ColOff  int
	Rows    int // block extent; Rows·Cols ≤ crossbar cells
	Cols    int
}

// Geometry describes the chip's structural parameters.
type Geometry struct {
	TilesX, TilesY int // tile grid (c-mesh endpoints)
	IMAsPerTile    int
	XbarsPerIMA    int
}

// DefaultGeometry returns the evaluation configuration: an 8×8 tile grid
// with 4 IMAs of 8 crossbars each (2048 crossbars).
func DefaultGeometry() Geometry {
	return Geometry{TilesX: 8, TilesY: 8, IMAsPerTile: 4, XbarsPerIMA: 8}
}

// Crossbars returns the total crossbar count.
func (g Geometry) Crossbars() int { return g.TilesX * g.TilesY * g.IMAsPerTile * g.XbarsPerIMA }

// Tiles returns the number of tiles.
func (g Geometry) Tiles() int { return g.TilesX * g.TilesY }

// Chip is the full RCS: the physical crossbar farm, the task table, and the
// task↔crossbar mapping. It implements nn.Fabric.
type Chip struct {
	Params reram.DeviceParams
	Geom   Geometry
	Xbars  []*reram.Crossbar
	Tasks  []*Task

	taskOfXbar []int // crossbar index → task ID, or -1
	xbarOfTask []int // task ID → crossbar index

	// layers holds one record per mapped layer, indexed by Task.LayerID;
	// byName finds a record from the layer name the nn.Fabric calls carry.
	// MapNetwork builds both; afterwards they are only read.
	layers []*mappedLayer
	byName map[string]*mappedLayer

	// steps counts optimizer steps for endurance accounting.
	steps uint64

	// correctable[i] lists the cells of crossbar i whose faults the
	// peripheral ECC (AN code) corrects on weight reads: they read back as
	// the ideal quantised weight on the forward and backward weight paths.
	// The gradient outer product dW = δᵀ·a has no encoded operand, so ECC
	// cannot cover it. SetCorrectable installs the lists.
	correctable [][]int

	// Obs, when non-nil, counts physical events (task swaps, weight-write
	// steps). The nil check is the only cost on the per-step write path, so
	// a chip without a recorder runs allocation-free and bit-identical.
	Obs obs.Recorder
}

// mappedLayer is the chip's whole state for one mapped layer. MapNetwork
// allocates every field; the per-batch fabric calls only read it, rewrite
// fwd/bwd in place and flip dirty.
type mappedLayer struct {
	name string
	w    *tensor.Tensor // weight tensor (shared with nn)
	cols int            // w viewed as a rows×cols matrix
	// quant codes weights into the layer's fixed conductance range,
	// clipFactor × max|W_init| at mapping time. A fixed range is what real
	// hardware has (the conductance window is a device property): weights
	// that try to grow past it saturate, which bounds the damage a hijacked
	// gradient can do.
	quant    *reram.Quantizer
	fwd, bwd *tensor.Tensor // effective (fault-clamped) weights, both in W's shape
	dirty    bool           // fwd/bwd are stale: the weights, mapping or coverage changed
	// stamp is the sum of the task crossbars' state versions at the last
	// refresh. Versions only grow, so any fault written since then moves
	// the sum and makes the buffers stale without anyone saying so.
	stamp uint64
	tasks []*Task // the layer's forward tasks, then its backward tasks
	// relocated marks the weight elements held on fault-free spare cells
	// (Remap-T, Remap-WS), nil when none is. A relocated weight escapes
	// its faults everywhere: both weight paths and the gradient path.
	relocated []bool
}

// clipFactor is the headroom multiplier applied to a layer's initial
// weight range to set its coding range.
const clipFactor = 2

// NewChip builds a fault-free chip.
func NewChip(p reram.DeviceParams, g Geometry) *Chip {
	n := g.Crossbars()
	c := &Chip{
		Params:      p,
		Geom:        g,
		Xbars:       make([]*reram.Crossbar, n),
		taskOfXbar:  make([]int, n),
		byName:      make(map[string]*mappedLayer),
		correctable: make([][]int, n),
	}
	for i := range c.Xbars {
		c.Xbars[i] = reram.NewCrossbar(i, p)
		c.taskOfXbar[i] = -1
	}
	return c
}

// TileOf returns the tile index of crossbar i.
func (c *Chip) TileOf(xbar int) int {
	perTile := c.Geom.IMAsPerTile * c.Geom.XbarsPerIMA
	return xbar / perTile
}

// IMAOf returns the global IMA index of crossbar i.
func (c *Chip) IMAOf(xbar int) int { return xbar / c.Geom.XbarsPerIMA }

// TileCoord returns the (x, y) grid coordinate of a tile.
func (c *Chip) TileCoord(tile int) (x, y int) {
	return tile % c.Geom.TilesX, tile / c.Geom.TilesX
}

// HopCount returns the Manhattan distance between the tiles of two
// crossbars — the proximity metric Remap-D uses for receiver selection.
func (c *Chip) HopCount(xbarA, xbarB int) int {
	ax, ay := c.TileCoord(c.TileOf(xbarA))
	bx, by := c.TileCoord(c.TileOf(xbarB))
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// TaskOf returns the task mapped on crossbar i, or nil.
func (c *Chip) TaskOf(xbar int) *Task {
	id := c.taskOfXbar[xbar]
	if id < 0 {
		return nil
	}
	return c.Tasks[id]
}

// XbarOf returns the crossbar hosting task id.
func (c *Chip) XbarOf(taskID int) int { return c.xbarOfTask[taskID] }

// MappedXbars returns the indices of crossbars currently hosting a task.
func (c *Chip) MappedXbars() []int {
	var out []int
	for i, t := range c.taskOfXbar {
		if t >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// blockGrid returns how many blocks an r×c matrix needs on s-sized arrays.
func blockGrid(r, c, s int) (br, bc int) {
	return (r + s - 1) / s, (c + s - 1) / s
}

// MapNetwork creates forward and backward tasks for every MVM layer of net
// and assigns them to crossbars scattered round-robin across tiles (the
// PipeLayer-style placement: consecutive pipeline stages live on different
// tiles, which both balances NoC load and avoids clustering one layer's
// tasks in one corner of the chip). It returns an error if the chip has too
// few crossbars or already hosts a network. Mapping also builds each
// layer's record (coding range, effective-weight buffers, task list) and
// charges the initial stored weights (one array write per crossbar).
func (c *Chip) MapNetwork(net *nn.Network) error {
	if len(c.Tasks) > 0 {
		return fmt.Errorf("arch: chip already hosts %d tasks", len(c.Tasks))
	}
	s := c.Params.CrossbarSize
	perTile := c.Geom.IMAsPerTile * c.Geom.XbarsPerIMA
	nTiles := c.Geom.Tiles()
	// nextInTile[t] is the next unallocated crossbar slot within tile t.
	nextInTile := make([]int, nTiles)
	tileCursor := 0
	alloc := func(t *Task) error {
		for probe := 0; probe < nTiles; probe++ {
			tile := (tileCursor + probe) % nTiles
			if nextInTile[tile] < perTile {
				xi := tile*perTile + nextInTile[tile]
				nextInTile[tile]++
				tileCursor = (tile + 1) % nTiles
				c.taskOfXbar[xi] = t.ID
				c.xbarOfTask = append(c.xbarOfTask, xi)
				c.Xbars[xi].RecordWrite() // initial weight programming
				return nil
			}
		}
		return fmt.Errorf("arch: chip with %d crossbars cannot host task %d (%s/%s)",
			len(c.Xbars), t.ID, t.Layer, t.Phase)
	}
	// blocks creates and places the tasks of one phase of layer id: the
	// s×s blocks of a rows×cols matrix, in row-major block order.
	blocks := func(id int, phase Phase, rows, cols int) error {
		ml := c.layers[id]
		br, bc := blockGrid(rows, cols, s)
		for bi := 0; bi < br; bi++ {
			for bj := 0; bj < bc; bj++ {
				t := &Task{
					ID: len(c.Tasks), Layer: ml.name, LayerID: id, Phase: phase,
					RowOff: bi * s, ColOff: bj * s,
					Rows: minInt(s, rows-bi*s), Cols: minInt(s, cols-bj*s),
				}
				c.Tasks = append(c.Tasks, t)
				ml.tasks = append(ml.tasks, t)
				if err := alloc(t); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for _, name := range net.MVMLayers() {
		w := net.LayerWeight(name)
		if w == nil {
			return fmt.Errorf("arch: layer %q has no weight tensor", name)
		}
		clip := float64(w.AbsMax()) * clipFactor
		if clip <= 0 {
			clip = 1
		}
		rows, cols := flatDims(w)
		ml := &mappedLayer{
			name:  name,
			w:     w,
			cols:  cols,
			quant: c.Params.NewQuantizer(clip),
			fwd:   tensor.New(w.Shape...),
			bwd:   tensor.New(w.Shape...),
			dirty: true,
		}
		id := len(c.layers)
		c.layers = append(c.layers, ml)
		c.byName[name] = ml
		// The forward copy tiles W (rows×cols), the backward copy Wᵀ.
		if err := blocks(id, Forward, rows, cols); err != nil {
			return err
		}
		if err := blocks(id, Backward, cols, rows); err != nil {
			return err
		}
	}
	return nil
}

// flatDims views a weight tensor as a 2-D matrix: first axis Out, the rest
// flattened (Out×In for linear, OutC×(InC·K·K) for conv).
func flatDims(w *tensor.Tensor) (rows, cols int) {
	rows = w.Dim(0)
	cols = w.Len() / rows
	return rows, cols
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SetMapping installs a complete task→crossbar assignment like
// RestoreMapping, then accounts the moved weights as one rewrite per
// crossbar that received a moved task. Used by fault-aware static mapping,
// which reshuffles the whole placement once at t = 0.
func (c *Chip) SetMapping(xbarOfTask []int) error {
	old := c.Mapping()
	if err := c.RestoreMapping(xbarOfTask); err != nil {
		return err
	}
	for tid, xi := range xbarOfTask {
		if old[tid] != xi {
			c.Xbars[xi].RecordWrite()
		}
	}
	return nil
}

// Mapping returns a copy of the current task→crossbar assignment
// (index = task ID), the shape SetMapping accepts. Checkpoints persist it.
func (c *Chip) Mapping() []int {
	out := make([]int, len(c.xbarOfTask))
	copy(out, c.xbarOfTask)
	return out
}

// RestoreMapping installs a complete task→crossbar assignment
// (xbarOfTask[i] is the crossbar hosting task i) without any write
// accounting: checkpoint resume restores the write counters separately, so
// recording the moves again would double-count wear. The assignment must be
// injective and cover every task; an invalid one changes nothing.
func (c *Chip) RestoreMapping(xbarOfTask []int) error {
	if len(xbarOfTask) != len(c.Tasks) {
		return fmt.Errorf("arch: mapping covers %d of %d tasks", len(xbarOfTask), len(c.Tasks))
	}
	seen := make([]bool, len(c.Xbars))
	for tid, xi := range xbarOfTask {
		if xi < 0 || xi >= len(c.Xbars) {
			return fmt.Errorf("arch: task %d mapped to invalid crossbar %d", tid, xi)
		}
		if seen[xi] {
			return fmt.Errorf("arch: crossbar %d hosts two tasks", xi)
		}
		seen[xi] = true
	}
	for i := range c.taskOfXbar {
		c.taskOfXbar[i] = -1
	}
	for tid, xi := range xbarOfTask {
		c.xbarOfTask[tid] = xi
		c.taskOfXbar[xi] = tid
	}
	c.invalidateAll()
	return nil
}

// RestoreSteps overwrites the optimizer-step counter (checkpoint resume).
func (c *Chip) RestoreSteps(n uint64) { c.steps = n }

// SwapTasks exchanges the tasks of two crossbars (both must host tasks) and
// accounts a weight rewrite on both arrays. This is the physical weight
// exchange of the remapping step (Fig. 3(c)).
func (c *Chip) SwapTasks(xbarA, xbarB int) {
	ta, tb := c.taskOfXbar[xbarA], c.taskOfXbar[xbarB]
	if ta < 0 || tb < 0 {
		panic("arch: SwapTasks requires both crossbars to host tasks")
	}
	c.taskOfXbar[xbarA], c.taskOfXbar[xbarB] = tb, ta
	c.xbarOfTask[ta], c.xbarOfTask[tb] = xbarB, xbarA
	c.Xbars[xbarA].RecordWrite()
	c.Xbars[xbarB].RecordWrite()
	c.layers[c.Tasks[ta].LayerID].dirty = true
	c.layers[c.Tasks[tb].LayerID].dirty = true
	if c.Obs != nil {
		c.Obs.Add("arch.task_swaps", 1)
	}
}

// invalidateAll marks every layer's effective weights stale. Fault
// writes need no call: refresh sees them through the crossbar versions.
func (c *Chip) invalidateAll() {
	for _, ml := range c.layers {
		ml.dirty = true
	}
}

// SetRelocated replaces the relocation coverage of Remap-T and Remap-WS:
// rel maps a layer name to the flat indices of its weight elements held on
// fault-free spare cells; layers absent from rel relocate nothing. It
// returns how many of those elements were not relocated before — the
// weights the change physically moves onto spares. An unknown layer or an
// out-of-range element is an error that changes nothing.
func (c *Chip) SetRelocated(rel map[string][]int) (int, error) {
	for _, layer := range det.SortedKeys(rel) {
		ml := c.byName[layer]
		if ml == nil {
			return 0, fmt.Errorf("arch: relocation names unmapped layer %q", layer)
		}
		for _, e := range rel[layer] {
			if e < 0 || e >= len(ml.w.Data) {
				return 0, fmt.Errorf("arch: layer %q relocates element %d of %d", layer, e, len(ml.w.Data))
			}
		}
	}
	added := 0
	for _, ml := range c.layers {
		elems := rel[ml.name]
		if len(elems) == 0 {
			ml.relocated = nil
			continue
		}
		was := ml.relocated
		ml.relocated = make([]bool, len(ml.w.Data))
		for _, e := range elems {
			if !ml.relocated[e] && (was == nil || !was[e]) {
				added++
			}
			ml.relocated[e] = true
		}
	}
	c.invalidateAll()
	return added, nil
}

// Relocated returns the relocation coverage in SetRelocated's shape, each
// layer's elements ascending; layers relocating nothing are omitted.
func (c *Chip) Relocated() map[string][]int {
	out := map[string][]int{}
	for _, ml := range c.layers {
		for e, ok := range ml.relocated {
			if ok {
				out[ml.name] = append(out[ml.name], e)
			}
		}
	}
	return out
}

// SetCorrectable replaces the ECC coverage: cells[i] lists the flat cell
// indices of crossbar i whose faults the code corrects on weight reads.
// cells must have one entry per crossbar; a wrong length or an
// out-of-range cell is an error that changes nothing.
func (c *Chip) SetCorrectable(cells [][]int) error {
	if len(cells) != len(c.Xbars) {
		return fmt.Errorf("arch: ECC coverage for %d of %d crossbars", len(cells), len(c.Xbars))
	}
	for xi, list := range cells {
		for _, cell := range list {
			if cell < 0 || cell >= c.Xbars[xi].Cells() {
				return fmt.Errorf("arch: crossbar %d ECC cell %d outside %d cells", xi, cell, c.Xbars[xi].Cells())
			}
		}
	}
	for xi, list := range cells {
		c.correctable[xi] = slices.Clone(list)
	}
	c.invalidateAll()
	return nil
}

// Correctable returns a copy of the ECC coverage in SetCorrectable's shape.
func (c *Chip) Correctable() [][]int {
	out := make([][]int, len(c.correctable))
	for xi, list := range c.correctable {
		out[xi] = slices.Clone(list)
	}
	return out
}

// Layers returns the names of the layers mapped on the chip, in sorted
// order so policy code that iterates them is schedule-independent.
func (c *Chip) Layers() []string {
	return det.SortedKeys(c.byName)
}

// ---- nn.Fabric implementation ----

// EffectiveForward returns the fault-clamped forward weights of the layer.
//
//lint:hotpath
func (c *Chip) EffectiveForward(layer string, w *tensor.Tensor) *tensor.Tensor {
	ml := c.byName[layer]
	if ml == nil {
		return w // unmapped layers execute on the (ideal) digital fallback
	}
	c.refresh(ml)
	return ml.fwd
}

// EffectiveBackward returns the fault-clamped backward weights (the
// transpose-copy clamps, transposed back into W's shape for the caller).
//
//lint:hotpath
func (c *Chip) EffectiveBackward(layer string, w *tensor.Tensor) *tensor.Tensor {
	ml := c.byName[layer]
	if ml == nil {
		return w
	}
	c.refresh(ml)
	return ml.bwd
}

// TransformGradient models the backward phase's on-crossbar dW computation:
// every stuck cell of the layer's backward-task crossbars hijacks its
// gradient entry, reading as the stuck conductance's decode scaled to the
// gradient's dynamic range (SA1 → +max|g|, SA0 → −max|g|). Relocated
// elements keep their true gradient. This is the
// systematic, repeated-every-step error whose accumulation makes the
// backward phase fault-critical (paper Section III.B.2 / Fig. 5).
//
//lint:hotpath
func (c *Chip) TransformGradient(layer string, grad *tensor.Tensor) {
	ml := c.byName[layer]
	if ml == nil {
		return
	}
	scale := float64(grad.AbsMax())
	if scale == 0 { //lint:allow float-eq exact zero guard: AbsMax is exactly 0 only for an all-zero gradient
		return
	}
	for _, t := range ml.tasks {
		if t.Phase == Forward {
			continue
		}
		x := c.Xbars[c.xbarOfTask[t.ID]]
		for _, cell := range x.Stuck() {
			if elem, ok := ml.exposed(t, x, cell); ok {
				grad.Data[elem] = float32(x.StuckWeightAt(cell, float64(grad.Data[elem]), scale))
			}
		}
	}
}

// WeightsWritten is called by the optimizer after each step: the stored
// conductances of every crossbar holding the layer are reprogrammed.
//
//lint:hotpath
func (c *Chip) WeightsWritten(layer string) {
	ml := c.byName[layer]
	if ml == nil {
		return
	}
	for _, t := range ml.tasks {
		c.Xbars[c.xbarOfTask[t.ID]].RecordWrite()
	}
	ml.dirty = true
	c.steps++
	if c.Obs != nil {
		c.Obs.Add("arch.weight_writes", 1)
	}
}

// refresh recomputes a layer's effective weights in place when they are
// stale: the layer is dirty, or a fault was written to one of its
// crossbars since the last refresh.
//
//lint:hotpath
func (c *Chip) refresh(ml *mappedLayer) {
	var stamp uint64
	for _, t := range ml.tasks {
		stamp += c.Xbars[c.xbarOfTask[t.ID]].Version()
	}
	if !ml.dirty && stamp == ml.stamp {
		return
	}
	// Every cell is programmed with its quantised weight, so both copies
	// start from one quantise pass over W; only the stuck cells then
	// read back something else.
	w, q := ml.w, ml.quant
	q.QuantizeInto(ml.fwd.Data, w.Data)
	copy(ml.bwd.Data, ml.fwd.Data)
	for _, t := range ml.tasks {
		xi := c.xbarOfTask[t.ID]
		x := c.Xbars[xi]
		eff := ml.fwd
		if t.Phase == Backward {
			eff = ml.bwd
		}
		for _, cell := range x.Stuck() {
			if elem, ok := ml.exposed(t, x, cell); ok {
				eff.Data[elem] = float32(x.StuckWeightAt(cell, float64(w.Data[elem]), q.Clip()))
			}
		}
		// The ECC corrects its cells back to the ideal quantised weight.
		for _, cell := range c.correctable[xi] {
			i, j := cell/x.Size, cell%x.Size
			if i >= t.Rows || j >= t.Cols || x.StateAt(cell) == reram.Healthy {
				continue
			}
			elem := ml.elementOf(t, i, j)
			eff.Data[elem] = float32(q.Quantize(float64(w.Data[elem])))
		}
	}
	ml.dirty, ml.stamp = false, stamp
}

// exposed returns the weight element that stuck cell `cell` of x, the
// crossbar hosting task t of this layer, holds. It reports false when the
// cell lies outside the task's block, or when its element is relocated
// and so lives on a fault-free spare instead.
//
//lint:hotpath
func (ml *mappedLayer) exposed(t *Task, x *reram.Crossbar, cell int) (int, bool) {
	i, j := cell/x.Size, cell%x.Size
	if i >= t.Rows || j >= t.Cols {
		return 0, false
	}
	elem := ml.elementOf(t, i, j)
	if ml.relocated != nil && ml.relocated[elem] {
		return 0, false
	}
	return elem, true
}

// elementOf maps block position (r, col) of task t, a task of this layer,
// to the flat index of the corresponding element in the weight tensor.
//
//lint:hotpath
func (ml *mappedLayer) elementOf(t *Task, r, col int) int {
	if t.Phase == Forward {
		return (t.RowOff+r)*ml.cols + (t.ColOff + col)
	}
	// Backward blocks tile Wᵀ: block (r, col) holds W[ColOff+col][RowOff+r].
	return (t.ColOff+col)*ml.cols + (t.RowOff + r)
}

// Weight returns the weight tensor registered for a layer (nil if the layer
// is not mapped).
func (c *Chip) Weight(layer string) *tensor.Tensor {
	if ml := c.byName[layer]; ml != nil {
		return ml.w
	}
	return nil
}

// TrueDensity returns the ground-truth fault density of crossbar i
// (experiments use it to validate BIST estimates).
func (c *Chip) TrueDensity(xbar int) float64 { return c.Xbars[xbar].FaultDensity() }

// Steps returns the number of optimizer steps the chip has observed.
func (c *Chip) Steps() uint64 { return c.steps }

var _ nn.Fabric = (*Chip)(nil)
