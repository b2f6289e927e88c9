package reram

import (
	"fmt"
	"slices"

	"remapd/internal/tensor"
)

// Crossbar is one physical ReRAM array: a Size×Size grid of cells, each of
// which is Healthy or stuck. Faulty cells also carry a sampled stuck
// conductance so the analog read path (BIST) sees realistic device
// variation.
type Crossbar struct {
	ID     int
	Size   int
	Params DeviceParams

	state []CellState
	// gFault holds the sampled stuck conductance for faulty cells
	// (undefined for healthy cells).
	gFault []float64
	// inPositive records which cell of the weight's differential pair the
	// fault hit (sampled at injection); it selects the SAF polarity.
	inPositive []bool
	// writes counts row-write operations over the crossbar's lifetime
	// (weight updates + BIST test writes), for endurance accounting.
	writes uint64
	// nSA0 and nSA1 count the cells in each stuck state. setState, the
	// only writer of state, keeps them current, so the fault counts and
	// the density are O(1) reads.
	nSA0, nSA1 int
	// stuck lists the flat indices of the stuck cells in no particular
	// order, so weight deploy costs O(faults) instead of O(cells).
	// setState keeps it current alongside the counts.
	stuck []int
	// version counts cell-state changes: setState and HealAll bump it, so
	// a reader that cached something derived from the cell states can
	// tell that it is stale. Write accounting does not bump it.
	version uint64
}

// NewCrossbar returns a fault-free crossbar.
func NewCrossbar(id int, p DeviceParams) *Crossbar {
	n := p.CrossbarSize * p.CrossbarSize
	return &Crossbar{
		ID:         id,
		Size:       p.CrossbarSize,
		Params:     p,
		state:      make([]CellState, n),
		gFault:     make([]float64, n),
		inPositive: make([]bool, n),
	}
}

// Cells returns the total number of cells.
func (x *Crossbar) Cells() int { return x.Size * x.Size }

// State returns the state of cell (r, c).
//
//lint:hotpath
func (x *Crossbar) State(r, c int) CellState { return x.state[r*x.Size+c] }

// StateAt returns the state of the cell at flat index i.
//
//lint:hotpath
func (x *Crossbar) StateAt(i int) CellState { return x.state[i] }

// FaultG returns the sampled stuck conductance of the cell at flat index i.
//
//lint:hotpath
func (x *Crossbar) FaultG(i int) float64 { return x.gFault[i] }

// InjectFault marks cell (r, c) as stuck, sampling its stuck conductance
// from the device's SA0/SA1 resistance range and the differential-pair
// polarity uniformly. Injecting over an existing fault replaces it;
// injecting Healthy heals the cell (used only by tests).
func (x *Crossbar) InjectFault(r, c int, s CellState, rng *tensor.RNG) {
	x.InjectFaultPolar(r, c, s, rng.Float64() < 0.5, rng)
}

// InjectFaultPolar is InjectFault with an explicit pair polarity
// (inPositive = the fault hits the G⁺ cell). Targeted tests use it.
func (x *Crossbar) InjectFaultPolar(r, c int, s CellState, inPositive bool, rng *tensor.RNG) {
	i := r*x.Size + c
	x.setState(i, s)
	x.inPositive[i] = inPositive
	switch s {
	case SA0:
		x.gFault[i] = 1 / rng.Range(x.Params.SA0RMin, x.Params.SA0RMax)
	case SA1:
		x.gFault[i] = 1 / rng.Range(x.Params.SA1RMin, x.Params.SA1RMax)
	default:
		x.gFault[i] = 0
	}
}

// FaultInPositive reports which pair cell the fault at flat index i hit.
//
//lint:hotpath
func (x *Crossbar) FaultInPositive(i int) bool { return x.inPositive[i] }

// setState moves cell i to state s and keeps the per-state counts and the
// stuck list in step. Every state write goes through it.
func (x *Crossbar) setState(i int, s CellState) {
	switch s {
	case Healthy, SA0, SA1:
	default:
		panic(fmt.Sprintf("reram: invalid cell state %d", s))
	}
	was := x.state[i]
	switch {
	case was == Healthy && s != Healthy:
		x.stuck = append(x.stuck, i)
	case was != Healthy && s == Healthy:
		k, last := slices.Index(x.stuck, i), len(x.stuck)-1
		x.stuck[k] = x.stuck[last]
		x.stuck = x.stuck[:last]
	}
	x.count(was, -1)
	x.count(s, +1)
	x.state[i] = s
	x.version++
}

// count adds d to the count of stuck state s (a no-op for Healthy).
func (x *Crossbar) count(s CellState, d int) {
	switch s {
	case SA0:
		x.nSA0 += d
	case SA1:
		x.nSA1 += d
	}
}

// Version returns the cell-state version: it grows with every state
// write and never decreases.
//
//lint:hotpath
func (x *Crossbar) Version() uint64 { return x.version }

// FaultCount returns the number of stuck cells.
func (x *Crossbar) FaultCount() int { return x.nSA0 + x.nSA1 }

// CountState returns the number of cells in state s.
func (x *Crossbar) CountState(s CellState) int {
	switch s {
	case Healthy:
		return x.Cells() - x.FaultCount()
	case SA0:
		return x.nSA0
	case SA1:
		return x.nSA1
	}
	return 0
}

// FaultDensity returns the fraction of stuck cells in [0, 1].
func (x *Crossbar) FaultDensity() float64 {
	return float64(x.FaultCount()) / float64(x.Cells())
}

// ColumnFaults returns the number of cells of state s in column c
// (the quantity the BIST column-current read exposes).
func (x *Crossbar) ColumnFaults(c int, s CellState) int {
	n := 0
	for r := 0; r < x.Size; r++ {
		if x.state[r*x.Size+c] == s {
			n++
		}
	}
	return n
}

// RecordWrite accounts for one full-array write (one row-by-row program
// pass, e.g. a weight update or a BIST background write).
//
//lint:hotpath
func (x *Crossbar) RecordWrite() { x.writes++ }

// Writes returns the number of full-array writes performed.
func (x *Crossbar) Writes() uint64 { return x.writes }

// ReadColumnCurrent models the analog read used by BIST state S2/S5:
// every row is driven with the read voltage and the column current is
// I = Σ_r V·G_r. The cell conductances correspond to allZero (all healthy
// cells programmed to logic "0" = GMin, SA1 test) or all-one
// (GMax, SA0 test); faulty cells contribute their sampled stuck conductance.
func (x *Crossbar) ReadColumnCurrent(c int, programmedOne bool) float64 {
	p := x.Params
	gProg := p.GMin()
	if programmedOne {
		gProg = p.GMax()
	}
	var current float64
	for r := 0; r < x.Size; r++ {
		i := r*x.Size + c
		g := gProg
		if x.state[i] != Healthy {
			g = x.gFault[i]
		}
		current += p.ReadVoltage * g
	}
	return current
}

// HealAll clears every fault (used by tests and what-if experiments).
func (x *Crossbar) HealAll() {
	for i := range x.state {
		x.state[i] = Healthy
		x.gFault[i] = 0
	}
	x.nSA0, x.nSA1 = 0, 0
	x.stuck = x.stuck[:0]
	x.version++
}

// Stuck returns the flat indices of the stuck cells in no particular
// order. The slice is the crossbar's own: the caller must not modify it,
// and the next state write may change it.
//
//lint:hotpath
func (x *Crossbar) Stuck() []int { return x.stuck }

// StuckWeightAt returns what stuck cell i reads back in place of weight w,
// coded into the range ±clip (DeviceParams.StuckWeightAs).
//
//lint:hotpath
func (x *Crossbar) StuckWeightAt(i int, w, clip float64) float64 {
	return x.Params.StuckWeightAs(x.state[i], x.gFault[i], x.inPositive[i], w, clip)
}

// FaultCells returns the flat indices of all stuck cells in ascending
// order (nil when there are none) — the sparse walk a checkpoint
// serializes.
func (x *Crossbar) FaultCells() []int {
	if len(x.stuck) == 0 {
		return nil
	}
	out := slices.Clone(x.stuck)
	slices.Sort(out)
	return out
}

// RestoreFault reinstates a stuck cell with its previously sampled stuck
// conductance and pair polarity. Unlike InjectFault it draws nothing from
// an RNG: checkpoint resume must reproduce the exact analog state the
// snapshot captured.
func (x *Crossbar) RestoreFault(i int, s CellState, g float64, inPositive bool) {
	x.setState(i, s)
	x.gFault[i] = g
	x.inPositive[i] = inPositive
}

// RestoreWrites overwrites the lifetime write counter. Checkpoint resume
// uses it so endurance accounting continues exactly where the snapshot
// left off.
func (x *Crossbar) RestoreWrites(n uint64) { x.writes = n }
