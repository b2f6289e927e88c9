package fault

import (
	"math"
	"testing"

	"remapd/internal/tensor"
)

func TestEnduranceCDFProperties(t *testing.T) {
	m := NewEnduranceModel()
	if m.cdf(0) != 0 {
		t.Fatal("zero writes must give zero failure probability")
	}
	prev := 0.0
	for w := 100.0; w <= 10000; w += 100 {
		p := m.cdf(w)
		if p < prev {
			t.Fatalf("CDF must be monotone at %v", w)
		}
		if p < 0 || p > 1 {
			t.Fatalf("CDF out of range: %v", p)
		}
		prev = p
	}
	// At the characteristic life, 1−1/e of cells have failed.
	if got := m.cdf(m.CharacteristicLife); math.Abs(got-(1-1/math.E)) > 1e-12 {
		t.Fatalf("CDF(λ) = %v, want 1−1/e", got)
	}
}

func TestExpectedFailures(t *testing.T) {
	m := NewEnduranceModel()
	if m.ExpectedFailures(1000, 0) != 0 {
		t.Fatal("no writes, no failures")
	}
	e := m.ExpectedFailures(1000, uint64(m.CharacteristicLife))
	if e < 600 || e > 650 {
		t.Fatalf("expected failures at λ: %v, want ≈632", e)
	}
}

func TestEnduranceApplyFollowsWriteAsymmetry(t *testing.T) {
	rng := tensor.NewRNG(1)
	xbars := newFarm(10, 64)
	// Crossbar 3 is written heavily, the rest lightly.
	for i := 0; i < 3000; i++ {
		xbars[3].RecordWrite()
	}
	for _, x := range xbars {
		if x.ID != 3 {
			for i := 0; i < 10; i++ {
				x.RecordWrite()
			}
		}
	}
	m := NewEnduranceModel()
	n := m.Apply(xbars, rng)
	if n == 0 {
		t.Fatal("wear-out must produce failures")
	}
	heavy := xbars[3].FaultCount()
	light := 0
	for _, x := range xbars {
		if x.ID != 3 {
			light += x.FaultCount()
		}
	}
	if heavy <= light {
		t.Fatalf("heavily written crossbar must dominate: heavy=%d vs all-light=%d", heavy, light)
	}
}

func TestEnduranceApplyIsIncremental(t *testing.T) {
	rng := tensor.NewRNG(2)
	xbars := newFarm(1, 64)
	for i := 0; i < 1500; i++ {
		xbars[0].RecordWrite()
	}
	m := NewEnduranceModel()
	first := m.Apply(xbars, rng)
	// No new writes → no new failures.
	if again := m.Apply(xbars, rng); again != 0 {
		t.Fatalf("idempotent call injected %d", again)
	}
	// More writes → more failures.
	for i := 0; i < 1500; i++ {
		xbars[0].RecordWrite()
	}
	second := m.Apply(xbars, rng)
	if second == 0 {
		t.Fatalf("additional wear must fail more cells (first=%d)", first)
	}
	if xbars[0].FaultCount() != first+second {
		t.Fatal("fault count must equal total injected")
	}
}

func TestEnduranceSA1Fraction(t *testing.T) {
	rng := tensor.NewRNG(4)
	xbars := newFarm(20, 64)
	for _, x := range xbars {
		for i := 0; i < 4000; i++ {
			x.RecordWrite()
		}
	}
	m := NewEnduranceModel()
	m.Apply(xbars, rng)
	s := Collect(xbars)
	if s.TotalFaults < 1000 {
		t.Fatalf("expected heavy wear, got %d faults", s.TotalFaults)
	}
	ratio := float64(s.SA1) / float64(s.TotalFaults)
	if math.Abs(ratio-0.10) > 0.03 {
		t.Fatalf("SA1 fraction %v, want ≈0.10", ratio)
	}
}
