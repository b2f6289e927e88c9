// Package reram models ReRAM (memristive) devices and crossbar arrays at
// the level of detail the paper's evaluation needs: conductance-coded weight
// storage with quantisation, stuck-at-fault (SA0/SA1) cell states with
// realistic resistance ranges, per-cell write counting for endurance
// accounting, and the analog column-current behaviour that the BIST module
// observes.
//
// Resistance/conductance conventions follow the paper (and Grossi et al.):
// SA1 is a cell stuck at LOW resistance (1.5–3 kΩ ⇒ high conductance, reads
// as a large stored value) and SA0 is stuck at HIGH resistance
// (0.8–3 MΩ ⇒ near-zero conductance, reads as the minimum stored value).
package reram

import "math"

// CellState is the health state of one ReRAM cell.
type CellState uint8

// Cell states. Healthy cells are programmable; SA0/SA1 cells ignore writes.
const (
	Healthy CellState = iota
	SA0               // stuck at high resistance (open-like)
	SA1               // stuck at low resistance (short-like)
)

// String names the state for logs and test output.
func (s CellState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case SA0:
		return "SA0"
	case SA1:
		return "SA1"
	}
	return "invalid"
}

// CodingScheme selects how a signed weight maps onto cell conductances,
// which determines what a stuck cell reads back as.
type CodingScheme int

const (
	// OffsetCoding maps w ∈ [−clip, clip] onto a single cell's conductance
	// range with an offset subtraction — the scheme PytorX (the paper's
	// simulation layer) models. Stuck-at faults read back at the extremes:
	// SA1 ≈ +clip, SA0 ≈ −clip. This is the evaluation default because the
	// paper's accuracy numbers (and [5]'s "76% drop at 0.1% faults") are
	// produced under it.
	OffsetCoding CodingScheme = iota
	// DifferentialCoding maps w onto a (G⁺, G⁻) pair; SA0 faults zero the
	// weight or do nothing, SA1 faults peg it near ±clip. Gentler and
	// closer to ISAAC-style hardware; provided as an ablation.
	DifferentialCoding
)

// String names the scheme.
func (c CodingScheme) String() string {
	if c == DifferentialCoding {
		return "differential"
	}
	return "offset"
}

// DeviceParams collects the electrical and architectural constants of the
// ReRAM technology. Values follow the references the paper cites
// (ISAAC [13], Xu et al. [18], Grossi et al. [4]).
type DeviceParams struct {
	// ROn and ROff are the programmable low/high resistance states (Ω).
	ROn, ROff float64
	// SA0RMin/SA0RMax bound the stuck-at-0 resistance (Ω): 0.8–3 MΩ.
	SA0RMin, SA0RMax float64
	// SA1RMin/SA1RMax bound the stuck-at-1 resistance (Ω): 1.5–3 kΩ.
	SA1RMin, SA1RMax float64
	// ReadVoltage is the BIST/inference read voltage (V).
	ReadVoltage float64
	// Levels is the number of programmable conductance levels per cell.
	Levels int
	// CrossbarSize is the array dimension (cells per row/column).
	CrossbarSize int
	// ReRAMCycleNS is one ReRAM array cycle in nanoseconds (10 MHz ⇒ 100 ns).
	ReRAMCycleNS float64
	// CMOSCycleNS is one peripheral CMOS cycle in nanoseconds (1.2 GHz).
	CMOSCycleNS float64
	// Coding selects the weight↔conductance mapping (see CodingScheme).
	Coding CodingScheme
}

// StuckWeightAs returns the read-back value of a stuck cell under the
// configured coding scheme, given the fault state, the sampled stuck
// conductance, the pair polarity, and the weight the cell was supposed to
// hold.
//
//lint:hotpath
func (p DeviceParams) StuckWeightAs(state CellState, gFault float64, inPositive bool, w, clip float64) float64 {
	if p.Coding == DifferentialCoding {
		return p.StuckWeightPair(state, inPositive, w, clip)
	}
	return p.StuckWeight(gFault, clip)
}

// DefaultDeviceParams returns the technology point used throughout the
// paper's experiments: 128×128 arrays at 10 MHz with 1.2 GHz peripherals.
func DefaultDeviceParams() DeviceParams {
	return DeviceParams{
		ROn:          3e3,
		ROff:         1e6,
		SA0RMin:      0.8e6,
		SA0RMax:      3e6,
		SA1RMin:      1.5e3,
		SA1RMax:      3e3,
		ReadVoltage:  0.3,
		Levels:       32,
		CrossbarSize: 128,
		ReRAMCycleNS: 100,
		CMOSCycleNS:  1.0 / 1.2,
	}
}

// GMax returns the highest programmable conductance (S).
//
//lint:hotpath
func (p DeviceParams) GMax() float64 { return 1 / p.ROn }

// GMin returns the lowest programmable conductance (S).
//
//lint:hotpath
func (p DeviceParams) GMin() float64 { return 1 / p.ROff }

// GOfWeight maps a weight w ∈ [−clip, +clip] to a programmed conductance
// using offset (unipolar) coding, quantised to p.Levels levels.
//
//lint:hotpath
func (p DeviceParams) GOfWeight(w, clip float64) float64 {
	if clip <= 0 {
		return p.GMin()
	}
	x := (w + clip) / (2 * clip) // ∈ [0,1]
	if x < 0 {
		x = 0
	} else if x > 1 {
		x = 1
	}
	if p.Levels > 1 {
		x = math.Round(x*float64(p.Levels-1)) / float64(p.Levels-1)
	}
	return p.GMin() + x*(p.GMax()-p.GMin())
}

// WeightOfG inverts GOfWeight (without quantisation), clipping the result
// to ±1.25·clip to model ADC saturation on out-of-range stuck conductances.
//
//lint:hotpath
func (p DeviceParams) WeightOfG(g, clip float64) float64 {
	x := (g - p.GMin()) / (p.GMax() - p.GMin())
	w := x*2*clip - clip
	limit := 1.25 * clip
	if w > limit {
		w = limit
	} else if w < -limit {
		w = -limit
	}
	return w
}

// QuantizeWeight returns the weight value actually stored after program-
// and-read-back through the conductance coding (quantisation included).
//
//lint:hotpath
func (p DeviceParams) QuantizeWeight(w, clip float64) float64 {
	return p.WeightOfG(p.GOfWeight(w, clip), clip)
}

// Quantizer is a precomputed program-and-read-back table for one (device,
// clip) pair. QuantizeWeight walks the full conductance coding per call —
// two divisions, a round, and an inverse map — but with Levels programmable
// states there are only Levels distinct outcomes, so the weight-deploy hot
// path looks them up instead. Quantize is bit-identical to QuantizeWeight:
// the table index int(round(x·(L−1))) is exactly the rounded x·(L−1) that
// GOfWeight computes (a small integer-valued float64 converts to int and
// back without rounding), and each table entry is built by the same
// GMin + x·(GMax−GMin) → WeightOfG expression the scalar path evaluates.
type Quantizer struct {
	p    DeviceParams
	clip float64
	lut  []float64 // nil when the device point has no quantisation grid
}

// NewQuantizer builds the lookup table for clip. Degenerate device points
// (clip ≤ 0 or Levels ≤ 1, where GOfWeight does not snap to a grid) keep a
// nil table and fall back to the scalar path.
func (p DeviceParams) NewQuantizer(clip float64) *Quantizer {
	q := &Quantizer{p: p, clip: clip}
	if clip <= 0 || p.Levels <= 1 {
		return q
	}
	q.lut = make([]float64, p.Levels)
	for i := range q.lut {
		x := float64(i) / float64(p.Levels-1)
		q.lut[i] = p.WeightOfG(p.GMin()+x*(p.GMax()-p.GMin()), clip)
	}
	return q
}

// Clip returns the coding range the quantizer was built for.
//
//lint:hotpath
func (q *Quantizer) Clip() float64 { return q.clip }

// Quantize returns the stored weight after program-and-read-back,
// bit-identical to p.QuantizeWeight(w, clip). A NaN weight has no level
// and reads back NaN, as in QuantizeWeight.
//
//lint:hotpath
func (q *Quantizer) Quantize(w float64) float64 {
	if q.lut == nil {
		return q.p.QuantizeWeight(w, q.clip)
	}
	x := (w + q.clip) / (2 * q.clip)
	switch {
	case x < 0:
		x = 0
	case x > 1:
		x = 1
	case math.IsNaN(x):
		return x
	}
	return q.lut[int(math.Round(x*float64(q.p.Levels-1)))]
}

// QuantizeInto sets dst[i] to float32(Quantize(float64(src[i]))) for
// every i: the one pass that programs a whole layer. dst and src must
// have the same length. The loop body is Quantize's, written out: a call
// per weight would double the cost of the pass.
//
//lint:hotpath
func (q *Quantizer) QuantizeInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic("reram: QuantizeInto length mismatch")
	}
	if q.lut == nil {
		for i, w := range src {
			dst[i] = float32(q.p.QuantizeWeight(float64(w), q.clip))
		}
		return
	}
	lut, clip, top := q.lut, q.clip, float64(q.p.Levels-1)
	for i, w := range src {
		x := (float64(w) + clip) / (2 * clip)
		switch {
		case x < 0:
			x = 0
		case x > 1:
			x = 1
		case math.IsNaN(x):
			dst[i] = float32(x)
			continue
		}
		dst[i] = float32(lut[int(math.Round(x*top))])
	}
}

// StuckWeight returns the weight value read from a faulty cell under plain
// offset coding: SA1 reads near +clip (low resistance, high conductance),
// SA0 near −clip. gFault is the sampled stuck conductance. The crossbar
// weight path uses the differential-pair model (StuckWeightPair) instead;
// this decode remains for the BIST calibration path and offset-coded
// buffers.
//
//lint:hotpath
func (p DeviceParams) StuckWeight(gFault, clip float64) float64 {
	return p.WeightOfG(gFault, clip)
}

// StuckWeightPair returns the weight read back when one cell of a
// differential pair (w = (G⁺ − G⁻)·s, unipolar programming: the inactive
// cell rests at G_min) is stuck. inPositive selects which cell of the pair
// the fault hit. The asymmetry this produces is the well-known SAF
// behaviour: SA0 faults either zero the weight or do nothing (the stuck
// cell was already at G_min), while SA1 faults peg the weight near ±clip.
//
//	SA0 in G⁺: w' = w for w < 0, else ≈ 0
//	SA0 in G⁻: w' = w for w ≥ 0, else ≈ 0
//	SA1 in G⁺: w' ≈ +clip + min(w, 0)
//	SA1 in G⁻: w' ≈ −clip + max(w, 0)
//
//lint:hotpath
func (p DeviceParams) StuckWeightPair(state CellState, inPositive bool, w, clip float64) float64 {
	switch state {
	case SA0:
		if inPositive {
			if w < 0 {
				return w
			}
			return 0
		}
		if w >= 0 {
			return w
		}
		return 0
	case SA1:
		if inPositive {
			if w < 0 {
				return clip + w
			}
			return clip
		}
		if w >= 0 {
			return -clip + w
		}
		return -clip
	}
	return w
}
