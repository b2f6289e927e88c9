package fault

import (
	"math"

	"remapd/internal/obs"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// EnduranceModel is the physical alternative to PostModel's phenomenological
// wear-out: each cell has a write-cycle lifetime drawn from a Weibull
// distribution (the standard ReRAM endurance model, Grossi et al. [4]), and
// a cell fails — becomes a stuck-at fault — once the crossbar's accumulated
// writes exceed its lifetime. Because only mapped crossbars are written
// (weight updates + BIST background writes), the non-uniform wear the paper
// describes emerges from the simulation itself rather than from a sampling
// heuristic.
//
// Lifetimes are compressed for reproduction scale: real devices endure
// 10⁶–10¹² writes over months of training; the CharacteristicLife default
// puts the onset of wear-out within a few simulated epochs.
type EnduranceModel struct {
	// CharacteristicLife is the Weibull scale λ in array writes: at
	// w = λ, 63% of cells whose lifetime ended have failed.
	CharacteristicLife float64
	// Shape is the Weibull k (k > 1: wear-out dominated failures).
	Shape float64
	// SA1Fraction of new failures are SA1 (rest SA0), matching the 9:1
	// composition of endurance failures.
	SA1Fraction float64

	// applied tracks, per crossbar ID, the write count up to which
	// failures have already been materialised.
	applied map[int]uint64

	// Obs, when non-nil, receives a WearEvent per crossbar that actually
	// materialised new faults, stamped with SimEpoch (set by the trainer
	// before each Apply). The write watermark in the event is the
	// crossbar's cumulative write count — the endurance exposure metric.
	Obs      obs.Recorder
	SimEpoch int
}

// NewEnduranceModel returns the compressed-lifetime default.
func NewEnduranceModel() *EnduranceModel {
	return &EnduranceModel{
		CharacteristicLife: 2000,
		Shape:              2.0,
		SA1Fraction:        0.10,
		applied:            make(map[int]uint64),
	}
}

// cdf is the Weibull failure probability after w writes.
func (m *EnduranceModel) cdf(w float64) float64 {
	if w <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(w/m.CharacteristicLife, m.Shape))
}

// ExpectedFailures returns the expected number of failed cells for a
// crossbar after w writes.
func (m *EnduranceModel) ExpectedFailures(cells int, w uint64) float64 {
	return float64(cells) * m.cdf(float64(w))
}

// Apply materialises the failures implied by each crossbar's write counter
// since the last call and returns the number of new faults injected. New
// failures are placed uniformly (endurance wear is not spatially
// clustered, unlike manufacturing defects).
func (m *EnduranceModel) Apply(xbars []*reram.Crossbar, rng *tensor.RNG) int {
	total := 0
	for _, x := range xbars {
		prev := m.applied[x.ID]
		now := x.Writes()
		if now <= prev {
			continue
		}
		m.applied[x.ID] = now
		// Incremental expected failures over the healthy population.
		pPrev, pNow := m.cdf(float64(prev)), m.cdf(float64(now))
		if pNow <= pPrev {
			continue
		}
		// Hazard over survivors: among cells alive at prev, the fraction
		// failing by now.
		hazard := (pNow - pPrev) / (1 - pPrev)
		healthy := x.Cells() - x.FaultCount()
		expect := hazard * float64(healthy)
		// Sample the integer count: floor + Bernoulli remainder.
		n := int(expect)
		if rng.Float64() < expect-float64(n) {
			n++
		}
		injected := InjectMixed(x, n, m.SA1Fraction, 0, 0, rng)
		total += injected
		if m.Obs != nil && injected > 0 {
			m.Obs.Emit(&obs.WearEvent{Epoch: m.SimEpoch, Xbar: x.ID, Writes: now, NewFaults: injected})
		}
	}
	return total
}

// AppliedWrites returns a copy of the per-crossbar write counts up to which
// failures have already been materialised (checkpoint snapshot).
func (m *EnduranceModel) AppliedWrites() map[int]uint64 {
	out := make(map[int]uint64, len(m.applied))
	for id, w := range m.applied {
		out[id] = w
	}
	return out
}

// RestoreAppliedWrites replaces the bookkeeping with a checkpointed copy,
// so a resumed run materialises only the wear accrued after the snapshot.
func (m *EnduranceModel) RestoreAppliedWrites(applied map[int]uint64) {
	m.applied = make(map[int]uint64, len(applied))
	for id, w := range applied {
		m.applied[id] = w
	}
}
