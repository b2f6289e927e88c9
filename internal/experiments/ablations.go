package experiments

import (
	"context"
	"fmt"

	"remapd/internal/reram"
)

// The ablations quantify the design decisions DESIGN.md §6 calls out.

// ThresholdRow is one point of the Remap-D trigger-threshold sweep.
type ThresholdRow struct {
	Threshold float64
	Accuracy  float64
	Swaps     int
	Unmatched int
}

// AblationThreshold sweeps the Remap-D density threshold on one model:
// too low churns tasks between marginally different crossbars, too high
// leaves hot crossbars untreated.
func AblationThreshold(ctx context.Context, s Scale, reg FaultRegime, model string, thresholds []float64) ([]ThresholdRow, error) {
	out, err := newRunner(s).Run(ctx, ablationThresholdSpecs(s, reg, model, thresholds))
	if err != nil {
		return nil, err
	}
	var rows []ThresholdRow
	i := 0
	for _, th := range thresholds {
		var accs []float64
		swaps, unmatched := 0, 0
		for range s.Seeds {
			res := out[i].Result
			i++
			accs = append(accs, res.FinalTestAcc)
			swaps += res.Swaps
			unmatched += res.Unmatched
		}
		rows = append(rows, ThresholdRow{Threshold: th, Accuracy: mean(accs), Swaps: swaps, Unmatched: unmatched})
	}
	return rows, nil
}

// ReceiverRow compares nearest-receiver selection against random-receiver
// selection: accuracy should match while NoC traffic (hop-weighted flits)
// grows for the random pick.
type ReceiverRow struct {
	Policy    string // "nearest" or "random"
	Accuracy  float64
	NoCCycles int64
	Swaps     int
}

// AblationReceiverSelection runs the receiver-choice ablation with the
// flit-level NoC enabled.
func AblationReceiverSelection(ctx context.Context, s Scale, reg FaultRegime, model string) ([]ReceiverRow, error) {
	selections := []string{"nearest", "random"}
	out, err := newRunner(s).Run(ctx, ablationReceiverSpecs(s, reg, model))
	if err != nil {
		return nil, err
	}
	var rows []ReceiverRow
	i := 0
	for _, sel := range selections {
		var accs []float64
		var cycles int64
		swaps := 0
		for range s.Seeds {
			res := out[i].Result
			i++
			accs = append(accs, res.FinalTestAcc)
			cycles += res.NoCCyclesTotal
			swaps += res.Swaps
		}
		rows = append(rows, ReceiverRow{Policy: sel, Accuracy: mean(accs), NoCCycles: cycles, Swaps: swaps})
	}
	return rows, nil
}

// CodingRow compares the PytorX-style offset coding against the
// differential-pair coding (DESIGN.md §6.5).
type CodingRow struct {
	Coding     string
	NoProtAcc  float64
	RemapDAcc  float64
	IdealAcc   float64
	NoProtDrop float64
	RemapDDrop float64
}

// AblationCoding runs the Fig. 6 headline cells under both coding schemes.
func AblationCoding(ctx context.Context, s Scale, reg FaultRegime, model string) ([]CodingRow, error) {
	codings := []reram.CodingScheme{reram.OffsetCoding, reram.DifferentialCoding}
	policies := []string{"ideal", "none", "remap-d"}
	out, err := newRunner(s).Run(ctx, ablationCodingSpecs(s, reg, model))
	if err != nil {
		return nil, err
	}
	var rows []CodingRow
	i := 0
	for _, coding := range codings {
		// Aggregate per policy position (ideal, none, remap-d) rather than
		// through a string-keyed map, so accumulation order is fixed by the
		// policies slice.
		accs := make([][]float64, len(policies))
		for pi := range policies {
			for range s.Seeds {
				accs[pi] = append(accs[pi], out[i].Result.FinalTestAcc)
				i++
			}
		}
		row := CodingRow{
			Coding:    coding.String(),
			IdealAcc:  mean(accs[0]),
			NoProtAcc: mean(accs[1]),
			RemapDAcc: mean(accs[2]),
		}
		row.NoProtDrop = row.IdealAcc - row.NoProtAcc
		row.RemapDDrop = row.IdealAcc - row.RemapDAcc
		rows = append(rows, row)
	}
	return rows, nil
}

// BISTvsTruthRow compares BIST-estimated densities against ground truth as
// the remap trigger signal.
type BISTvsTruthRow struct {
	Source   string // "bist" or "truth"
	Accuracy float64
	Swaps    int
}

// AblationBISTvsTruth checks that the low-cost density estimate is good
// enough to drive remapping.
func AblationBISTvsTruth(ctx context.Context, s Scale, reg FaultRegime, model string) ([]BISTvsTruthRow, error) {
	sources := []string{"bist", "truth"}
	out, err := newRunner(s).Run(ctx, ablationBISTSpecs(s, reg, model))
	if err != nil {
		return nil, err
	}
	var rows []BISTvsTruthRow
	i := 0
	for _, src := range sources {
		var accs []float64
		swaps := 0
		for range s.Seeds {
			res := out[i].Result
			i++
			accs = append(accs, res.FinalTestAcc)
			swaps += res.Swaps
		}
		rows = append(rows, BISTvsTruthRow{Source: src, Accuracy: mean(accs), Swaps: swaps})
	}
	return rows, nil
}

// FormatThreshold renders the threshold sweep.
func FormatThreshold(rows []ThresholdRow) string {
	out := fmt.Sprintf("%10s %9s %6s %9s\n", "threshold", "accuracy", "swaps", "unmatched")
	for _, r := range rows {
		out += fmt.Sprintf("%9.2f%% %9.3f %6d %9d\n", 100*r.Threshold, r.Accuracy, r.Swaps, r.Unmatched)
	}
	return out
}

// FormatReceiver renders the receiver-selection ablation.
func FormatReceiver(rows []ReceiverRow) string {
	out := fmt.Sprintf("%-8s %9s %10s %6s\n", "policy", "accuracy", "noc-cycles", "swaps")
	for _, r := range rows {
		out += fmt.Sprintf("%-8s %9.3f %10d %6d\n", r.Policy, r.Accuracy, r.NoCCycles, r.Swaps)
	}
	return out
}

// FormatCoding renders the coding-scheme ablation.
func FormatCoding(rows []CodingRow) string {
	out := fmt.Sprintf("%-13s %7s %8s %8s %11s %9s\n", "coding", "ideal", "no-prot", "remap-d", "noprot-drop", "rd-drop")
	for _, r := range rows {
		out += fmt.Sprintf("%-13s %7.3f %8.3f %8.3f %11.3f %9.3f\n",
			r.Coding, r.IdealAcc, r.NoProtAcc, r.RemapDAcc, r.NoProtDrop, r.RemapDDrop)
	}
	return out
}

// FormatBISTvsTruth renders the sensing ablation.
func FormatBISTvsTruth(rows []BISTvsTruthRow) string {
	out := fmt.Sprintf("%-6s %9s %6s\n", "source", "accuracy", "swaps")
	for _, r := range rows {
		out += fmt.Sprintf("%-6s %9.3f %6d\n", r.Source, r.Accuracy, r.Swaps)
	}
	return out
}
