package ancode

import (
	"slices"
	"testing"
	"testing/quick"

	"remapd/internal/reram"
	"remapd/internal/tensor"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := NewCode()
	for _, x := range []int64{0, 1, -5, 1000, -12345} {
		cw := c.Encode(x)
		if !c.Check(cw) {
			t.Fatalf("codeword of %d fails check", x)
		}
		if c.Decode(cw) != x {
			t.Fatalf("decode(%d) != %d", cw, x)
		}
	}
}

// Property: arithmetic on codewords stays in the code (the defining AN
// property: A·x + A·y = A·(x+y)).
func TestCodewordArithmeticClosedProperty(t *testing.T) {
	c := NewCode()
	f := func(x, y int32) bool {
		s := c.Encode(int64(x)) + c.Encode(int64(y))
		return c.Check(s) && c.Decode(s) == int64(x)+int64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorDetection(t *testing.T) {
	c := NewCode()
	cw := c.Encode(42)
	for _, e := range []int64{1, -1, 7, 100, 250} {
		if c.Check(cw + e) {
			t.Fatalf("error %d undetected (A=%d)", e, c.A)
		}
	}
	// Errors that are multiples of A are (by design) undetectable.
	if !c.Check(cw + c.A) {
		t.Fatal("multiple-of-A error should alias to a valid codeword")
	}
}

func TestSyndromeAndCorrect(t *testing.T) {
	c := NewCode()
	cw := c.Encode(7)
	corrupted := cw + 5
	if c.Syndrome(corrupted) != 5 {
		t.Fatalf("syndrome = %d, want 5", c.Syndrome(corrupted))
	}
	fixed, ok := c.Correct(corrupted, 10)
	if !ok || fixed != cw {
		t.Fatalf("correction failed: %d, ok=%v", fixed, ok)
	}
	// Negative error.
	fixed, ok = c.Correct(cw-3, 10)
	if !ok || fixed != cw {
		t.Fatalf("negative-error correction failed")
	}
	// Error beyond the search bound is uncorrectable.
	if _, ok := c.Correct(cw+100, 10); ok {
		t.Fatal("out-of-range error should not correct")
	}
}

// TestCorrectable pins the fabric-level model: a profile lists the faults
// present when it runs, minus those in columns with more faults than the
// code corrects; faults that appear later wait for the next profile.
func TestCorrectable(t *testing.T) {
	type cell struct{ r, c int }
	const size = 16
	cases := []struct {
		name          string
		before, after []cell // faults injected before / after the first profile
		want, again   []int  // the first and the second profile's cells
	}{
		{name: "requires-table", before: []cell{{2, 3}},
			want: []int{2*size + 3}, again: []int{2*size + 3}},
		// Two faults in column 4 exceed single-error capability; the lone
		// fault in column 7 corrects.
		{name: "column-capacity", before: []cell{{0, 4}, {9, 4}, {3, 7}},
			want: []int{3*size + 7}, again: []int{3*size + 7}},
		{name: "blind-to-new-faults", after: []cell{{5, 5}},
			want: nil, again: []int{5*size + 5}},
		{name: "later-fault-overloads-column", before: []cell{{3, 7}}, after: []cell{{8, 7}},
			want: []int{3*size + 7}, again: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(1)
			p := reram.DefaultDeviceParams()
			p.CrossbarSize = size
			xbars := []*reram.Crossbar{reram.NewCrossbar(0, p), reram.NewCrossbar(1, p)}
			for _, f := range tc.before {
				xbars[1].InjectFault(f.r, f.c, reram.SA1, rng)
			}
			code := NewCode()
			first := code.Correctable(xbars)
			for _, f := range tc.after {
				xbars[1].InjectFault(f.r, f.c, reram.SA0, rng)
			}
			second := code.Correctable(xbars)
			for _, got := range []struct {
				profile [][]int
				want    []int
			}{{first, tc.want}, {second, tc.again}} {
				if len(got.profile) != 2 || got.profile[0] != nil || !slices.Equal(got.profile[1], got.want) {
					t.Fatalf("profile %v, want [[] %v]", got.profile, got.want)
				}
			}
		})
	}
}

func TestAreaOverheadConstant(t *testing.T) {
	if AreaOverhead != 0.063 {
		t.Fatalf("AN-code area overhead %v, paper reports 6.3%%", AreaOverhead)
	}
}
