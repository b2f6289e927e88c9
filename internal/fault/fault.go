// Package fault implements the stuck-at-fault injection profiles of the
// paper's evaluation: a clustered, non-uniform pre-deployment profile
// (manufacturing defects) and an epoch-by-epoch post-deployment model
// (endurance wear-out), with the paper's SA0:SA1 = 9:1 composition.
package fault

import (
	"math"
	"sort"

	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// PreProfile describes the pre-deployment (manufacturing) fault
// distribution. Per the paper's setup: 20% of crossbars are "hot" with a
// fault density drawn from 0.4–1%, the remaining 80% draw from 0–0.4%, and
// roughly two-thirds of faulty cells cluster spatially (Chen et al. [16]).
type PreProfile struct {
	// HighFraction is the fraction of crossbars with high fault density.
	HighFraction float64
	// HighDensity is the [lo, hi) density range of hot crossbars.
	HighDensity [2]float64
	// LowDensity is the [lo, hi) density range of the remaining crossbars.
	LowDensity [2]float64
	// SA1Fraction is the fraction of faults that are SA1 (paper: 1/10).
	SA1Fraction float64
	// ClusterFraction is the fraction of faults placed in spatial clusters.
	ClusterFraction float64
	// ClusterSigma is the cluster spread in cells.
	ClusterSigma float64
}

// DefaultPreProfile returns the paper's pre-deployment configuration.
func DefaultPreProfile() PreProfile {
	return PreProfile{
		HighFraction:    0.20,
		HighDensity:     [2]float64{0.004, 0.010},
		LowDensity:      [2]float64{0.000, 0.004},
		SA1Fraction:     0.10,
		ClusterFraction: 2.0 / 3.0,
		ClusterSigma:    3,
	}
}

// Inject applies the profile to every crossbar. Hot crossbars are chosen
// uniformly at random; each crossbar then receives round(density·cells) new
// faults. The number of injected faults is returned.
func (p PreProfile) Inject(xbars []*reram.Crossbar, rng *tensor.RNG) int {
	nHot := int(p.HighFraction*float64(len(xbars)) + 0.5)
	perm := rng.Perm(len(xbars))
	hot := make(map[int]bool, nHot)
	for i := 0; i < nHot; i++ {
		hot[perm[i]] = true
	}
	total := 0
	for i, x := range xbars {
		r := p.LowDensity
		if hot[i] {
			r = p.HighDensity
		}
		density := rng.Range(r[0], r[1])
		count := int(density*float64(x.Cells()) + 0.5)
		total += InjectMixed(x, count, p.SA1Fraction, p.ClusterFraction, p.ClusterSigma, rng)
	}
	return total
}

// PostModel describes the post-deployment (endurance) fault process: after
// each training epoch, CellFraction (the paper's m%) new faults appear on
// CrossbarFraction (n%) of the crossbars. Victim crossbars are drawn with
// probability proportional to 1 + their accumulated write count, modelling
// the paper's observation that frequently-written crossbars wear out
// faster.
type PostModel struct {
	CrossbarFraction float64 // n ∈ [0,1]
	CellFraction     float64 // m ∈ [0,1]
	SA1Fraction      float64
	ClusterFraction  float64
	ClusterSigma     float64
}

// DefaultPostModel returns the paper's headline post-deployment scenario:
// 0.5% new faults on 1% of the crossbars per epoch.
func DefaultPostModel() PostModel {
	return PostModel{
		CrossbarFraction: 0.01,
		CellFraction:     0.005,
		SA1Fraction:      0.10,
		ClusterFraction:  0.5,
		ClusterSigma:     3,
	}
}

// InjectEpoch applies one epoch of wear-out and returns the number of new
// faults. At least one crossbar is always affected when CrossbarFraction>0
// and there is at least one crossbar, matching the paper's "new faults
// every epoch" worst-case framing.
func (p PostModel) InjectEpoch(xbars []*reram.Crossbar, rng *tensor.RNG) int {
	if len(xbars) == 0 || p.CrossbarFraction <= 0 || p.CellFraction <= 0 {
		return 0
	}
	nVictims := int(p.CrossbarFraction*float64(len(xbars)) + 0.5)
	if nVictims < 1 {
		nVictims = 1
	}
	if nVictims > len(xbars) {
		nVictims = len(xbars)
	}
	victims := pickVictims(xbars, nVictims, rng)
	total := 0
	for _, vi := range victims {
		x := xbars[vi]
		count := int(p.CellFraction*float64(x.Cells()) + 0.5)
		if count < 1 {
			count = 1
		}
		total += InjectMixed(x, count, p.SA1Fraction, p.ClusterFraction, p.ClusterSigma, rng)
	}
	return total
}

// pickVictims selects n distinct crossbar indices, weighted by 1 + writes.
func pickVictims(xbars []*reram.Crossbar, n int, rng *tensor.RNG) []int {
	type wt struct {
		idx int
		key float64
	}
	// Weighted sampling without replacement via exponential-keys
	// ("A-Res" reservoir weights): key = −ln(U)/w, take the n smallest.
	keys := make([]wt, len(xbars))
	for i, x := range xbars {
		w := 1 + float64(x.Writes())
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		keys[i] = wt{idx: i, key: -math.Log(u) / w}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = keys[i].idx
	}
	return out
}

// InjectMixed places count new faults on x, a ClusterFraction of them in a
// Gaussian cluster around a random centre and the rest uniformly. Cells
// that are already faulty are skipped (attempts are bounded, so the
// realised count can fall slightly short on nearly-saturated arrays).
// SA1Fraction of the injected faults are SA1; the rest SA0. Returns the
// number actually injected.
func InjectMixed(x *reram.Crossbar, count int, sa1Fraction, clusterFraction, clusterSigma float64, rng *tensor.RNG) int {
	return InjectMixedRegion(x, count, sa1Fraction, clusterFraction, clusterSigma, x.Size, x.Size, rng)
}

// InjectMixedRegion is InjectMixed restricted to the top-left rows×cols
// region of the array — the cells a partially-filled crossbar actually
// uses. Targeted experiments (e.g. the paper's Fig. 5 phase study, which
// assumes fully-utilised crossbars) inject relative to the mapped block so
// the weight-level fault rate matches the nominal density.
func InjectMixedRegion(x *reram.Crossbar, count int, sa1Fraction, clusterFraction, clusterSigma float64, rows, cols int, rng *tensor.RNG) int {
	if count <= 0 {
		return 0
	}
	if rows > x.Size {
		rows = x.Size
	}
	if cols > x.Size {
		cols = x.Size
	}
	nCluster := int(clusterFraction*float64(count) + 0.5)
	injected := 0

	place := func(r, c int) bool {
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return false
		}
		if x.State(r, c) != reram.Healthy {
			return false
		}
		s := reram.SA0
		if rng.Float64() < sa1Fraction {
			s = reram.SA1
		}
		x.InjectFault(r, c, s, rng)
		injected++
		return true
	}

	// Clustered portion: Gaussian around a random centre.
	if nCluster > 0 {
		cr, cc := rng.Intn(rows), rng.Intn(cols)
		placed, attempts := 0, 0
		for placed < nCluster && attempts < 50*nCluster+100 {
			attempts++
			r := cr + int(rng.NormFloat64()*clusterSigma+0.5)
			c := cc + int(rng.NormFloat64()*clusterSigma+0.5)
			if place(r, c) {
				placed++
			}
		}
	}

	// Uniform remainder.
	remaining := count - injected
	attempts := 0
	for remaining > 0 && attempts < 50*count+100 {
		attempts++
		if place(rng.Intn(rows), rng.Intn(cols)) {
			remaining--
		}
	}
	return injected
}

// Stats summarises the fault state of a set of crossbars.
type Stats struct {
	Crossbars    int
	TotalCells   int
	TotalFaults  int
	SA0, SA1     int
	MeanDensity  float64
	MaxDensity   float64
	FaultyXbars  int // crossbars with ≥1 fault
	HottestXbarI int // index of the highest-density crossbar (-1 if none)
}

// Collect computes Stats over xbars.
func Collect(xbars []*reram.Crossbar) Stats {
	s := Stats{Crossbars: len(xbars), HottestXbarI: -1}
	for i, x := range xbars {
		s.TotalCells += x.Cells()
		f := x.FaultCount()
		s.TotalFaults += f
		s.SA0 += x.CountState(reram.SA0)
		s.SA1 += x.CountState(reram.SA1)
		if f > 0 {
			s.FaultyXbars++
		}
		d := x.FaultDensity()
		if d > s.MaxDensity {
			s.MaxDensity = d
			s.HottestXbarI = i
		}
	}
	if s.TotalCells > 0 {
		s.MeanDensity = float64(s.TotalFaults) / float64(s.TotalCells)
	}
	return s
}
