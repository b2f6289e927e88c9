package fault

import (
	"math"
	"testing"
	"testing/quick"

	"remapd/internal/reram"
	"remapd/internal/tensor"
)

func newFarm(n, size int) []*reram.Crossbar {
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = size
	xbars := make([]*reram.Crossbar, n)
	for i := range xbars {
		xbars[i] = reram.NewCrossbar(i, p)
	}
	return xbars
}

func TestPreProfileDensityRanges(t *testing.T) {
	rng := tensor.NewRNG(1)
	xbars := newFarm(100, 128)
	prof := DefaultPreProfile()
	prof.Inject(xbars, rng)

	hot, cold := 0, 0
	for _, x := range xbars {
		d := x.FaultDensity()
		switch {
		case d > 0.010+1e-4:
			t.Fatalf("density %v above the 1%% manufacturing cap", d)
		case d >= 0.004:
			hot++
		default:
			cold++
		}
	}
	// ~20 of 100 crossbars should be hot (allow sampling slack; some hot
	// draws near the 0.4% boundary are indistinguishable from cold).
	if hot < 8 || hot > 32 {
		t.Fatalf("hot crossbars = %d, want ≈20", hot)
	}
}

func TestPreProfileSA0SA1Ratio(t *testing.T) {
	rng := tensor.NewRNG(2)
	xbars := newFarm(200, 128)
	DefaultPreProfile().Inject(xbars, rng)
	s := Collect(xbars)
	if s.TotalFaults == 0 {
		t.Fatal("profile injected nothing")
	}
	ratio := float64(s.SA1) / float64(s.TotalFaults)
	if math.Abs(ratio-0.10) > 0.03 {
		t.Fatalf("SA1 fraction %v, want ≈0.10 (9:1 SA0:SA1)", ratio)
	}
}

func TestPostModelInjectsEveryEpoch(t *testing.T) {
	rng := tensor.NewRNG(3)
	xbars := newFarm(100, 128)
	pm := DefaultPostModel()
	before := Collect(xbars).TotalFaults
	for e := 0; e < 10; e++ {
		n := pm.InjectEpoch(xbars, rng)
		if n <= 0 {
			t.Fatalf("epoch %d injected %d faults, want > 0", e, n)
		}
	}
	after := Collect(xbars).TotalFaults
	if after <= before {
		t.Fatal("post-deployment faults must accumulate")
	}
}

func TestPostModelVictimCount(t *testing.T) {
	rng := tensor.NewRNG(4)
	xbars := newFarm(100, 128)
	pm := PostModel{CrossbarFraction: 0.02, CellFraction: 0.01, SA1Fraction: 0.1}
	pm.InjectEpoch(xbars, rng)
	s := Collect(xbars)
	if s.FaultyXbars != 2 {
		t.Fatalf("faulty crossbars = %d, want 2 (n=2%% of 100)", s.FaultyXbars)
	}
	// Each victim gets 1% of 128² = 164 faults.
	cells := 128 * 128
	want := int(0.01*float64(cells) + 0.5)
	perXbar := s.TotalFaults / s.FaultyXbars
	if perXbar < want-5 || perXbar > want+5 {
		t.Fatalf("faults per victim = %d, want ≈%d", perXbar, want)
	}
}

func TestPostModelWriteWeightedPrefersWornCrossbars(t *testing.T) {
	rng := tensor.NewRNG(5)
	xbars := newFarm(50, 64)
	// Crossbar 7 has been written 10000× more than the others.
	for i := 0; i < 10000; i++ {
		xbars[7].RecordWrite()
	}
	pm := PostModel{CrossbarFraction: 0.02, CellFraction: 0.01, SA1Fraction: 0.1}
	hits := 0
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for _, x := range xbars {
			x.HealAll()
		}
		pm.InjectEpoch(xbars, rng)
		if xbars[7].FaultCount() > 0 {
			hits++
		}
	}
	if hits < rounds*8/10 {
		t.Fatalf("worn crossbar chosen in %d/%d rounds; write weighting ineffective", hits, rounds)
	}
}

func TestPostModelZeroConfigIsNoop(t *testing.T) {
	rng := tensor.NewRNG(6)
	xbars := newFarm(10, 32)
	pm := PostModel{}
	if n := pm.InjectEpoch(xbars, rng); n != 0 {
		t.Fatalf("zero model injected %d", n)
	}
}

func TestInjectMixedCount(t *testing.T) {
	rng := tensor.NewRNG(7)
	xbars := newFarm(1, 64)
	n := InjectMixed(xbars[0], 100, 0.1, 0.5, 3, rng)
	if n != 100 {
		t.Fatalf("injected %d, want 100", n)
	}
	if xbars[0].FaultCount() != 100 {
		t.Fatalf("crossbar reports %d faults", xbars[0].FaultCount())
	}
}

func TestInjectMixedClusteringIsSpatial(t *testing.T) {
	rng := tensor.NewRNG(8)
	xbars := newFarm(1, 128)
	InjectMixed(xbars[0], 120, 0.1, 1.0, 2.5, rng) // fully clustered
	x := xbars[0]
	// Compute the spatial spread of faults: for a pure cluster with σ=2.5
	// it must be far below the uniform expectation (~52 for 128 cells).
	var rs, cs []float64
	for r := 0; r < x.Size; r++ {
		for c := 0; c < x.Size; c++ {
			if x.State(r, c) != reram.Healthy {
				rs = append(rs, float64(r))
				cs = append(cs, float64(c))
			}
		}
	}
	sd := func(v []float64) float64 {
		var m float64
		for _, x := range v {
			m += x
		}
		m /= float64(len(v))
		var s float64
		for _, x := range v {
			s += (x - m) * (x - m)
		}
		return math.Sqrt(s / float64(len(v)))
	}
	if sd(rs) > 10 || sd(cs) > 10 {
		t.Fatalf("clustered faults too spread: σr=%.1f σc=%.1f", sd(rs), sd(cs))
	}
}

// Property: InjectMixed never exceeds the requested count and never places
// a fault on an already-faulty cell (fault count equals injected total).
func TestInjectMixedNoDoubleCountProperty(t *testing.T) {
	f := func(seed uint32, c1, c2 uint8) bool {
		rng := tensor.NewRNG(uint64(seed))
		xbars := newFarm(1, 32)
		n1 := InjectMixed(xbars[0], int(c1)%200, 0.1, 0.6, 3, rng)
		n2 := InjectMixed(xbars[0], int(c2)%200, 0.1, 0.6, 3, rng)
		return xbars[0].FaultCount() == n1+n2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectStats(t *testing.T) {
	rng := tensor.NewRNG(9)
	xbars := newFarm(3, 32)
	InjectMixed(xbars[1], 10, 0.5, 0, 0, rng)
	InjectMixed(xbars[2], 40, 0.0, 0, 0, rng)
	s := Collect(xbars)
	if s.Crossbars != 3 || s.TotalCells != 3*1024 {
		t.Fatalf("collect counts wrong: %+v", s)
	}
	if s.TotalFaults != 50 || s.FaultyXbars != 2 {
		t.Fatalf("fault totals wrong: %+v", s)
	}
	if s.HottestXbarI != 2 {
		t.Fatalf("hottest = %d, want 2", s.HottestXbarI)
	}
	if math.Abs(s.MeanDensity-50.0/3072) > 1e-12 {
		t.Fatalf("mean density %v", s.MeanDensity)
	}
	if s.SA0+s.SA1 != 50 {
		t.Fatalf("state split %d+%d", s.SA0, s.SA1)
	}
}
