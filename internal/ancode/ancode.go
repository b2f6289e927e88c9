// Package ancode implements the AN arithmetic code used as the ECC baseline
// (Feinberg et al., HPCA 2018 — reference [10] of the paper). An AN code
// encodes an integer x as A·x; any arithmetic combination of codewords is
// again a multiple of A, so a non-zero residue mod A reveals an error, and
// small error magnitudes can be corrected from a precomputed syndrome table.
//
// The package provides both the genuine arithmetic code (Encode/Check/
// Correct, exercised by the unit tests) and the fabric-level behavioural
// model the training experiments use: Correctable profiles the crossbars
// into the cells whose faults the code repairs — faults present at the
// profile whose column's fault count is within the code's correction
// capability. This captures the two weaknesses the paper exploits: AN
// codes cannot correct columns with too many faults (clustered/high-density
// crossbars), and newly appeared post-deployment faults are invisible until
// the next profile.
package ancode

import "remapd/internal/reram"

// Code is an AN arithmetic code with parameter A. A is typically chosen as
// a prime close to a power of two (e.g. 251) so encoding is cheap and the
// minimum arithmetic distance is A.
type Code struct {
	A int64
	// CorrectablePerColumn bounds how many faulty cells per crossbar
	// column the output-side correction can absorb (1 for the single-error
	// syndrome table of [10]).
	CorrectablePerColumn int
}

// NewCode returns the baseline configuration: A = 251, single-error
// correction per column.
func NewCode() Code { return Code{A: 251, CorrectablePerColumn: 1} }

// Encode returns the codeword A·x.
func (c Code) Encode(x int64) int64 { return c.A * x }

// Decode returns the data value of a codeword (which must be valid).
func (c Code) Decode(cw int64) int64 { return cw / c.A }

// Check reports whether cw is a valid codeword (residue 0 mod A).
func (c Code) Check(cw int64) bool {
	r := cw % c.A
	return r == 0
}

// Syndrome returns the error residue of a corrupted codeword.
func (c Code) Syndrome(cw int64) int64 {
	r := cw % c.A
	if r < 0 {
		r += c.A
	}
	return r
}

// Correct attempts to repair a codeword assuming a single additive error of
// magnitude at most maxErr. It searches the syndrome space e ≡ cw (mod A),
// |e| ≤ maxErr, and returns the corrected codeword and true on success.
// (Real hardware uses a precomputed table; the exhaustive search here is
// equivalent and only used at test scale.)
func (c Code) Correct(cw int64, maxErr int64) (int64, bool) {
	if c.Check(cw) {
		return cw, true
	}
	for e := int64(1); e <= maxErr; e++ {
		if c.Check(cw - e) {
			return cw - e, true
		}
		if c.Check(cw + e) {
			return cw + e, true
		}
	}
	return cw, false
}

// AreaOverhead is the fractional chip-area cost of the AN-code datapath
// (encoder, residue checker, syndrome table, correction ALU) reported by
// [10]: 6.3%.
const AreaOverhead = 0.063

// Correctable is the fabric-level model: it profiles the crossbars the
// way a correction-table refresh does and returns, per crossbar (in xbars
// order), the faulty cells the code can correct — those whose column's
// fault count is within CorrectablePerColumn — as ascending flat indices.
// The result is a snapshot: a fault that appears afterwards is invisible
// until the next profile, and a crossbar's correctable cells stay
// correctable whichever task it hosts.
func (c Code) Correctable(xbars []*reram.Crossbar) [][]int {
	out := make([][]int, len(xbars))
	for xi, x := range xbars {
		faults := x.FaultCells()
		if len(faults) == 0 {
			continue
		}
		cols := make([]int, x.Size)
		for _, cell := range faults {
			cols[cell%x.Size]++
		}
		for _, cell := range faults {
			if cols[cell%x.Size] <= c.CorrectablePerColumn {
				out[xi] = append(out[xi], cell)
			}
		}
	}
	return out
}
