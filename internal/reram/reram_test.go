package reram

import (
	"math"
	"testing"
	"testing/quick"

	"remapd/internal/tensor"
)

func TestDefaultDeviceParamsSane(t *testing.T) {
	p := DefaultDeviceParams()
	if p.GMax() <= p.GMin() {
		t.Fatal("GMax must exceed GMin")
	}
	if p.CrossbarSize != 128 {
		t.Fatalf("crossbar size %d, want 128 (paper)", p.CrossbarSize)
	}
	if p.ReRAMCycleNS != 100 {
		t.Fatalf("ReRAM cycle %v ns, want 100 (10 MHz)", p.ReRAMCycleNS)
	}
}

func TestWeightConductanceRoundTrip(t *testing.T) {
	p := DefaultDeviceParams()
	p.Levels = 0 // disable quantisation for the round-trip check
	for _, w := range []float64{-1, -0.5, 0, 0.25, 1} {
		g := p.GOfWeight(w, 1)
		back := p.WeightOfG(g, 1)
		if math.Abs(back-w) > 1e-9 {
			t.Fatalf("round trip %v -> %v", w, back)
		}
	}
}

// Property: quantisation error is bounded by half a level step.
func TestQuantizationErrorBoundProperty(t *testing.T) {
	p := DefaultDeviceParams()
	step := 2.0 / float64(p.Levels-1)
	f := func(raw int16) bool {
		w := float64(raw) / 32768 // ∈ (−1, 1)
		q := p.QuantizeWeight(w, 1)
		return math.Abs(q-w) <= step/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeClipsOutOfRange(t *testing.T) {
	p := DefaultDeviceParams()
	if q := p.QuantizeWeight(5, 1); math.Abs(q-1) > 1e-9 {
		t.Fatalf("over-range weight quantised to %v, want 1", q)
	}
	if q := p.QuantizeWeight(-5, 1); math.Abs(q+1) > 1e-9 {
		t.Fatalf("under-range weight quantised to %v, want -1", q)
	}
}

func TestStuckWeightPolarity(t *testing.T) {
	p := DefaultDeviceParams()
	rng := tensor.NewRNG(1)
	for i := 0; i < 100; i++ {
		gSA1 := 1 / rng.Range(p.SA1RMin, p.SA1RMax)
		gSA0 := 1 / rng.Range(p.SA0RMin, p.SA0RMax)
		w1 := p.StuckWeight(gSA1, 1)
		w0 := p.StuckWeight(gSA0, 1)
		if w1 < 0.99 {
			t.Fatalf("SA1 must read near +clip, got %v", w1)
		}
		if w0 > -0.9 {
			t.Fatalf("SA0 must read near −clip, got %v", w0)
		}
	}
}

func TestStuckWeightPairSemantics(t *testing.T) {
	p := DefaultDeviceParams()
	cases := []struct {
		state      CellState
		inPositive bool
		w, want    float64
	}{
		{SA0, true, 0.4, 0},     // active G⁺ lost → zero
		{SA0, true, -0.4, -0.4}, // G⁺ already at Gmin → no effect
		{SA0, false, 0.4, 0.4},  // G⁻ already at Gmin → no effect
		{SA0, false, -0.4, 0},   // active G⁻ lost → zero
		{SA1, true, 0.4, 1},     // G⁺ shorted → +clip
		{SA1, true, -0.4, 0.6},  // G⁺ shorted against stored G⁻
		{SA1, false, 0.4, -0.6}, // G⁻ shorted against stored G⁺
		{SA1, false, -0.4, -1},  // G⁻ shorted → −clip
	}
	for _, c := range cases {
		got := p.StuckWeightPair(c.state, c.inPositive, c.w, 1)
		if math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("StuckWeightPair(%v, pos=%v, w=%v) = %v, want %v",
				c.state, c.inPositive, c.w, got, c.want)
		}
	}
	// Healthy passes through.
	if p.StuckWeightPair(Healthy, true, 0.3, 1) != 0.3 {
		t.Fatal("healthy state must pass the weight through")
	}
}

func TestCrossbarFaultBookkeeping(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 16
	rng := tensor.NewRNG(2)
	x := NewCrossbar(0, p)
	if x.FaultCount() != 0 || x.FaultDensity() != 0 {
		t.Fatal("new crossbar must be fault-free")
	}
	x.InjectFault(0, 0, SA0, rng)
	x.InjectFault(3, 5, SA1, rng)
	x.InjectFault(3, 5, SA1, rng) // replace, not double count
	if x.FaultCount() != 2 {
		t.Fatalf("FaultCount = %d, want 2", x.FaultCount())
	}
	if x.CountState(SA0) != 1 || x.CountState(SA1) != 1 {
		t.Fatal("per-state counts wrong")
	}
	if d := x.FaultDensity(); math.Abs(d-2.0/256) > 1e-12 {
		t.Fatalf("density %v", d)
	}
	if x.State(3, 5) != SA1 {
		t.Fatal("State lookup wrong")
	}
	if x.ColumnFaults(5, SA1) != 1 || x.ColumnFaults(5, SA0) != 0 {
		t.Fatal("ColumnFaults wrong")
	}
	x.HealAll()
	if x.FaultCount() != 0 {
		t.Fatal("HealAll must clear faults")
	}
}

func TestCrossbarWriteCounter(t *testing.T) {
	p := DefaultDeviceParams()
	x := NewCrossbar(1, p)
	for i := 0; i < 5; i++ {
		x.RecordWrite()
	}
	if x.Writes() != 5 {
		t.Fatalf("Writes = %d", x.Writes())
	}
}

func TestReadColumnCurrentSA1Monotone(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 16
	rng := tensor.NewRNG(3)
	// SA1 test: background programmed to "0" (GMin); each SA1 cell adds a
	// large conductance, so current must increase monotonically in the
	// number of SA1 faults despite resistance variation.
	prev := -1.0
	for k := 0; k <= 8; k++ {
		x := NewCrossbar(0, p)
		for r := 0; r < k; r++ {
			x.InjectFault(r, 0, SA1, rng)
		}
		cur := x.ReadColumnCurrent(0, false)
		if cur <= prev {
			t.Fatalf("SA1 current not increasing at k=%d: %v <= %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestReadColumnCurrentSA0Monotone(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 16
	rng := tensor.NewRNG(4)
	// SA0 test: background programmed to "1" (GMax); each SA0 fault removes
	// a large conductance, so current must decrease.
	prev := math.Inf(1)
	for k := 0; k <= 8; k++ {
		x := NewCrossbar(0, p)
		for r := 0; r < k; r++ {
			x.InjectFault(r, 0, SA0, rng)
		}
		cur := x.ReadColumnCurrent(0, true)
		if cur >= prev {
			t.Fatalf("SA0 current not decreasing at k=%d: %v >= %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestClampWeightsHealthyQuantises(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 4
	x := NewCrossbar(0, p)
	src := []float32{0.5, -0.25, 0, 1}
	dst := make([]float32, 4)
	x.ClampWeights(dst, src, 1, 4, 1)
	for i := range src {
		if math.Abs(float64(dst[i]-src[i])) > 2.0/float64(p.Levels-1) {
			t.Fatalf("healthy clamp deviates too much: %v -> %v", src[i], dst[i])
		}
	}
}

func TestClampWeightsStuckCellsOffset(t *testing.T) {
	p := DefaultDeviceParams() // offset coding is the default
	p.CrossbarSize = 4
	rng := tensor.NewRNG(5)
	x := NewCrossbar(0, p)
	x.InjectFault(0, 0, SA1, rng)
	x.InjectFault(0, 1, SA0, rng)
	src := []float32{0.1, 0.1, 0.1}
	dst := make([]float32, 3)
	x.ClampWeights(dst, src, 1, 3, 1)
	if dst[0] < 0.9 {
		t.Fatalf("offset SA1 cell must clamp high, got %v", dst[0])
	}
	if dst[1] > -0.9 {
		t.Fatalf("offset SA0 cell must clamp low, got %v", dst[1])
	}
	if math.Abs(float64(dst[2])-0.1) > 0.05 {
		t.Fatalf("healthy cell perturbed: %v", dst[2])
	}
}

func TestClampWeightsStuckCellsDifferential(t *testing.T) {
	p := DefaultDeviceParams()
	p.Coding = DifferentialCoding
	p.CrossbarSize = 4
	rng := tensor.NewRNG(5)
	x := NewCrossbar(0, p)
	x.InjectFaultPolar(0, 0, SA1, true, rng)  // SA1 in G⁺ of a positive weight
	x.InjectFaultPolar(0, 1, SA0, true, rng)  // SA0 in G⁺ of a positive weight
	x.InjectFaultPolar(0, 2, SA1, false, rng) // SA1 in G⁻
	src := []float32{0.1, 0.1, 0.1, 0.1}
	dst := make([]float32, 4)
	x.ClampWeights(dst, src, 1, 4, 1)
	if dst[0] < 0.9 {
		t.Fatalf("SA1/G⁺ cell must clamp high, got %v", dst[0])
	}
	if dst[1] != 0 {
		t.Fatalf("SA0/G⁺ on a positive weight must zero it, got %v", dst[1])
	}
	if dst[2] > -0.85 {
		t.Fatalf("SA1/G⁻ cell must clamp low, got %v", dst[2])
	}
	if math.Abs(float64(dst[3])-0.1) > 0.05 {
		t.Fatalf("healthy cell perturbed: %v", dst[3])
	}
}

func TestClampWeightsCapacityPanic(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 2
	x := NewCrossbar(0, p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized block")
		}
	}()
	x.ClampWeights(make([]float32, 5), make([]float32, 5), 1, 5, 1)
}

func TestProgramNoiseDeterministicPerWrite(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 4
	p.ProgramSigma = 0.1
	x := NewCrossbar(0, p)
	src := []float32{0.5, -0.3, 0.2, 0.1}
	a, b := make([]float32, 4), make([]float32, 4)
	x.ClampWeights(a, src, 1, 4, 1)
	x.ClampWeights(b, src, 1, 4, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("programming noise must be stable between writes")
		}
	}
	// After a rewrite the noise is resampled.
	x.RecordWrite()
	x.ClampWeights(b, src, 1, 4, 1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("noise must resample after an array write")
	}
}

func TestProgramNoiseMagnitude(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 64
	p.ProgramSigma = 0.05
	p.Levels = 0 // isolate the noise from quantisation
	x := NewCrossbar(3, p)
	n := 64 * 64
	src := make([]float32, n)
	for i := range src {
		src[i] = 0.5
	}
	dst := make([]float32, n)
	x.ClampWeights(dst, src, 64, 64, 1)
	var sum, sq float64
	for _, v := range dst {
		r := float64(v) / 0.5
		sum += r
		sq += r * r
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("noise mean ratio %v, want ≈1", mean)
	}
	if sd < 0.03 || sd > 0.08 {
		t.Fatalf("noise sd %v, want ≈0.05", sd)
	}
}

func TestZeroSigmaIsNoiseFree(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 4
	p.Levels = 0
	x := NewCrossbar(0, p)
	src := []float32{0.25}
	dst := make([]float32, 1)
	x.ClampWeights(dst, src, 1, 1, 1)
	if math.Abs(float64(dst[0]-0.25)) > 1e-7 {
		t.Fatalf("σ=0 must be exact: %v", dst[0])
	}
}

// Property: fault density equals injected count / cells for random
// injection patterns without duplicates.
func TestFaultDensityMatchesInjectionProperty(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 16
	rng := tensor.NewRNG(6)
	f := func(seed uint32, kRaw uint8) bool {
		k := int(kRaw) % 64
		x := NewCrossbar(0, p)
		local := tensor.NewRNG(uint64(seed))
		perm := local.Perm(x.Cells())
		for i := 0; i < k; i++ {
			r, c := perm[i]/16, perm[i]%16
			s := SA0
			if local.Float64() < 0.1 {
				s = SA1
			}
			x.InjectFault(r, c, s, rng)
		}
		return x.FaultCount() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCountInvariant applies seeded random sequences of every cell
// state writer — InjectFault, InjectFaultPolar (SA0↔SA1 overwrites and
// heals by injecting Healthy), RestoreFault and HealAll — and checks the
// maintained counts against a dense recount after every operation.
func TestFaultCountInvariant(t *testing.T) {
	p := DefaultDeviceParams()
	p.CrossbarSize = 8 // 64 cells: random ops collide often
	var overwrites, heals, healAlls int
	for seed := uint64(1); seed <= 16; seed++ {
		rng := tensor.NewRNG(seed)
		x := NewCrossbar(0, p)
		for op := 0; op < 400; op++ {
			i := rng.Intn(x.Cells())
			r, c := i/x.Size, i%x.Size
			s := CellState(rng.Intn(3))
			before := x.StateAt(i)
			switch k := rng.Intn(32); {
			case k < 12:
				x.InjectFault(r, c, s, rng)
			case k < 22:
				x.InjectFaultPolar(r, c, s, rng.Intn(2) == 0, rng)
			case k < 31:
				x.RestoreFault(i, s, rng.Float64(), rng.Intn(2) == 0)
			default:
				x.HealAll()
				healAlls++
			}
			switch after := x.StateAt(i); {
			case before != Healthy && after != Healthy && before != after:
				overwrites++
			case before != Healthy && after == Healthy:
				heals++
			}

			var sa0, sa1 int
			for j := 0; j < x.Cells(); j++ {
				switch x.StateAt(j) {
				case SA0:
					sa0++
				case SA1:
					sa1++
				}
			}
			if x.FaultCount() != sa0+sa1 || x.CountState(SA0) != sa0 || x.CountState(SA1) != sa1 ||
				x.CountState(Healthy) != x.Cells()-sa0-sa1 || len(x.FaultCells()) != sa0+sa1 {
				t.Fatalf("seed %d op %d: FaultCount %d, SA0 %d, SA1 %d, Healthy %d, FaultCells %d; dense recount SA0 %d SA1 %d",
					seed, op, x.FaultCount(), x.CountState(SA0), x.CountState(SA1), x.CountState(Healthy),
					len(x.FaultCells()), sa0, sa1)
			}
			if want := float64(sa0+sa1) / float64(x.Cells()); math.Float64bits(x.FaultDensity()) != math.Float64bits(want) {
				t.Fatalf("seed %d op %d: FaultDensity %v, want %v", seed, op, x.FaultDensity(), want)
			}
		}
	}
	if overwrites == 0 || heals == 0 || healAlls == 0 {
		t.Fatalf("sequences missed a transition: %d stuck→stuck overwrites, %d heals, %d HealAll",
			overwrites, heals, healAlls)
	}
}
