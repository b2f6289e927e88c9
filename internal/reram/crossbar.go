package reram

import (
	"fmt"
	"math"

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

// setState moves cell i to state s and keeps the per-state counts in
// step. Every state write goes through it.
func (x *Crossbar) setState(i int, s CellState) {
	switch s {
	case Healthy, SA0, SA1:
	default:
		panic(fmt.Sprintf("reram: invalid cell state %d", s))
	}
	x.count(x.state[i], -1)
	x.count(s, +1)
	x.state[i] = s
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

// ClampWeights materialises the weights this crossbar would actually apply
// during an MVM for a rows×cols block stored in the array's top-left corner
// (block element (i, j) lives in cell (i, j)): healthy cells return the
// quantised programmed weight; stuck cells return the weight their stuck
// conductance decodes to. src and dst are flat row-major rows×cols blocks;
// clip is the layer's weight coding range.
func (x *Crossbar) ClampWeights(dst, src []float32, rows, cols int, clip float64) {
	if len(dst) != len(src) || len(src) != rows*cols {
		panic("reram: ClampWeights block size mismatch")
	}
	q := x.Params.NewQuantizer(clip)
	for i := 0; i < rows; i++ {
		x.ClampRowInto(q, dst[i*cols:], src[i*cols:], 1, 1, i, cols)
	}
}

// ClampRowInto clamps one crossbar row directly between caller-owned
// (possibly strided) views: dst[j·dstStride] receives the effective weight
// of src[j·srcStride] as seen through cell (row, j), for j in [0, ncols).
// Stride 1 walks a contiguous forward-weight row; stride = matrix-width
// walks a column of the transposed backward copy in place. This is the
// fused deploy path: the architecture layer hands tensor sub-slices here
// instead of gathering blocks into scratch and scattering results back.
//
//lint:hotpath
func (x *Crossbar) ClampRowInto(q *Quantizer, dst, src []float32, dstStride, srcStride, row, ncols int) {
	if row < 0 || row >= x.Size || ncols > x.Size {
		panic(fmt.Sprintf("reram: row %d / %d cols exceeds crossbar size %d", row, ncols, x.Size))
	}
	if ncols <= 0 {
		return
	}
	if (ncols-1)*dstStride >= len(dst) || (ncols-1)*srcStride >= len(src) {
		panic("reram: ClampRowInto view too short for stride")
	}
	p := x.Params
	states := x.state[row*x.Size : row*x.Size+ncols]
	if p.ProgramSigma <= 0 {
		healthy := true
		for _, s := range states {
			if s != Healthy {
				healthy = false
				break
			}
		}
		if healthy {
			for j := 0; j < ncols; j++ {
				dst[j*dstStride] = float32(q.Quantize(float64(src[j*srcStride])))
			}
			return
		}
	}
	for j, s := range states {
		w := float64(src[j*srcStride])
		if s == Healthy {
			w = q.Quantize(w)
			if p.ProgramSigma > 0 {
				w *= programNoise(x.ID, x.writes, row*x.Size+j, p.ProgramSigma)
			}
		} else {
			cell := row*x.Size + j
			w = p.StuckWeightAs(s, x.gFault[cell], x.inPositive[cell], w, q.clip)
		}
		dst[j*dstStride] = float32(w)
	}
}

// programNoise returns a deterministic lognormal factor exp(σ·z) for the
// cell's current programmed state: the same (crossbar, write-generation,
// cell) triple always yields the same factor, so the noise is stable
// between writes and resampled when the array is reprogrammed.
//
//lint:hotpath
func programNoise(id int, writes uint64, cell int, sigma float64) float64 {
	// splitmix64 over the triple.
	h := uint64(id)*0x9e3779b97f4a7c15 ^ writes*0xbf58476d1ce4e5b9 ^ uint64(cell)*0x94d049bb133111eb
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	// Two 32-bit uniforms → one Box–Muller normal.
	u1 := float64(h>>40) / float64(1<<24)
	u2 := float64(h&0xffffff) / float64(1<<24)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(sigma * z)
}

// HealAll clears every fault (used by tests and what-if experiments).
func (x *Crossbar) HealAll() {
	for i := range x.state {
		x.state[i] = Healthy
		x.gFault[i] = 0
	}
	x.nSA0, x.nSA1 = 0, 0
}

// FaultCells returns the flat indices of all stuck cells in ascending
// order — the sparse walk a checkpoint serializes.
func (x *Crossbar) FaultCells() []int {
	var out []int
	for i, s := range x.state {
		if s != Healthy {
			out = append(out, i)
		}
	}
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
// uses it so endurance accounting — and the write-generation-keyed
// programming noise — continue exactly where the snapshot left off.
func (x *Crossbar) RestoreWrites(n uint64) { x.writes = n }
