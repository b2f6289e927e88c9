package reram

import (
	"math"
	"testing"

	"remapd/internal/tensor"
)

// TestQuantizerBitIdentical sweeps a dense weight grid (±2·clip, so both
// in-range and saturating inputs) comparing the LUT fast path, per weight
// and as one QuantizeInto pass over the float32 grid, against the scalar
// program-and-read-back chain bit-for-bit, across clip ranges and level
// counts.
func TestQuantizerBitIdentical(t *testing.T) {
	p := DefaultDeviceParams()
	src := make([]float32, 4001)
	dst := make([]float32, len(src))
	for _, levels := range []int{2, 8, 32} {
		p.Levels = levels
		for _, clip := range []float64{0.5, 1, 2.37} {
			q := p.NewQuantizer(clip)
			for i := -2000; i <= 2000; i++ {
				w := float64(i) / 1000 * clip
				got, want := q.Quantize(w), p.QuantizeWeight(w, clip)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("levels %d clip %g w %g: lut %x (%g) scalar %x (%g)",
						levels, clip, w, math.Float64bits(got), got, math.Float64bits(want), want)
				}
				src[i+2000] = float32(w)
			}
			q.QuantizeInto(dst, src)
			for i, w := range src {
				if want := float32(p.QuantizeWeight(float64(w), clip)); math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("levels %d clip %g w %g: QuantizeInto %g, scalar %g", levels, clip, w, dst[i], want)
				}
			}
		}
	}
}

// TestQuantizerDegenerateFallsBack pins the nil-LUT path: clip ≤ 0 and
// Levels ≤ 1 have no quantisation grid and must defer to the scalar chain.
func TestQuantizerDegenerateFallsBack(t *testing.T) {
	p := DefaultDeviceParams()
	q := p.NewQuantizer(0)
	if got, want := q.Quantize(0.3), p.QuantizeWeight(0.3, 0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("clip 0: lut %g scalar %g", got, want)
	}
	p.Levels = 1
	q = p.NewQuantizer(1)
	if got, want := q.Quantize(0.3), p.QuantizeWeight(0.3, 1); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("levels 1: lut %g scalar %g", got, want)
	}
}

// TestQuantizeEdgeCases pins Quantize and QuantizeInto to QuantizeWeight
// on the inputs a grid sweep misses: signed zeros, infinities, NaN (which
// reads back NaN instead of indexing the table), the range ends, values
// past them and exact half-level midpoints. QuantizeInto takes float32
// weights; 33 levels put the midpoints on float32 values, so it sees
// them exactly too.
func TestQuantizeEdgeCases(t *testing.T) {
	const clip = 1.0
	same := func(got, want float64) bool {
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return math.Float64bits(got) == math.Float64bits(want)
	}
	p := DefaultDeviceParams()
	for _, levels := range []int{32, 33, 1} { // 1: the scalar fallback
		p.Levels = levels
		q := p.NewQuantizer(clip)
		cases := map[string]float64{
			"+0": 0, "-0": math.Copysign(0, -1),
			"+Inf": math.Inf(1), "-Inf": math.Inf(-1), "NaN": math.NaN(),
			"+clip": clip, "-clip": -clip, "past +clip": 1.5 * clip, "past -clip": -1.5 * clip,
		}
		if levels > 1 {
			half := clip / float64(levels-1) // half a level step in weight units
			cases["first midpoint"] = -clip + half
			cases["third midpoint"] = -clip + 5*half
			cases["last midpoint"] = clip - half
		}
		for name, w := range cases {
			want := p.QuantizeWeight(w, clip)
			if got := q.Quantize(w); !same(got, want) {
				t.Errorf("levels %d %s: Quantize %g, QuantizeWeight %g", levels, name, got, want)
			}
			w32 := float32(w)
			want32 := float32(p.QuantizeWeight(float64(w32), clip))
			dst := make([]float32, 1)
			q.QuantizeInto(dst, []float32{w32})
			if !same(float64(dst[0]), float64(want32)) {
				t.Errorf("levels %d %s: QuantizeInto %g, QuantizeWeight %g", levels, name, dst[0], want32)
			}
		}
	}
}

func BenchmarkQuantizeInto(b *testing.B) {
	p := DefaultDeviceParams()
	q := p.NewQuantizer(1)
	rng := tensor.NewRNG(4)
	src := make([]float32, p.CrossbarSize*p.CrossbarSize) // one crossbar's block
	dst := make([]float32, len(src))
	for i := range src {
		// A layer's coding range is twice its initial max|W|, so trained
		// weights sit well inside ±clip.
		src[i] = float32(0.2 * rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.QuantizeInto(dst, src)
	}
}

func BenchmarkQuantize(b *testing.B) {
	p := DefaultDeviceParams()
	q := p.NewQuantizer(1)
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += q.Quantize(float64(i%200)/100 - 1)
	}
	_ = s
}
