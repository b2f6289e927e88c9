package experiments

import (
	"context"
	"fmt"

	"remapd/internal/bist"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// ---------------------------------------------------------------- Fig. 4

// Fig4Row is one point of the BIST current-vs-faults calibration curve.
type Fig4Row struct {
	Kind        string // "SA0" or "SA1"
	Faults      int
	MeanMicroA  float64
	MinMicroA   float64
	MaxMicroA   float64
	Separated   bool // variation band does not overlap the previous count's
	ArraySize   int
	ReadVoltage float64
}

// Fig4 reproduces the BIST output-current curves: column current vs the
// number of SA0/SA1 faults on a small illustration array (the paper uses
// 4×4) with device-resistance variation.
func Fig4(size, maxFaults, trials int, seed uint64) []Fig4Row {
	p := reram.DefaultDeviceParams()
	p.SA1RMax = 2e3 // Fig. 4's SA1 variation range is 1.5–2 kΩ (§IV.B)
	rng := tensor.NewRNG(seed)
	var rows []Fig4Row
	for _, kind := range []reram.CellState{reram.SA0, reram.SA1} {
		curve := bist.CurrentCurve(p, size, maxFaults, trials, kind, rng)
		for i, pt := range curve {
			row := Fig4Row{
				Kind: kind.String(), Faults: pt.Faults,
				MeanMicroA: pt.MeanMicroA, MinMicroA: pt.MinI * 1e6, MaxMicroA: pt.MaxI * 1e6,
				ArraySize: size, ReadVoltage: p.ReadVoltage,
			}
			if i > 0 {
				prev := curve[i-1]
				if kind == reram.SA1 {
					row.Separated = pt.MinI > prev.MaxI
				} else {
					row.Separated = pt.MaxI < prev.MinI
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Row reports phase fault tolerance for one model.
type Fig5Row struct {
	Model       string
	IdealAcc    float64
	ForwardAcc  float64 // faults only in forward-phase crossbars
	BackwardAcc float64 // faults only in backward-phase crossbars
	// BackwardWorse is the paper's headline observation.
	BackwardWorse bool
}

// Fig5 reproduces the forward-vs-backward fault-tolerance study: each
// model trains three times (no faults, faults on forward crossbars only,
// faults on backward crossbars only) at the regime's phase density. The
// 3 × models × seeds grid runs on the parallel cell runner.
func Fig5(ctx context.Context, s Scale, reg FaultRegime) ([]Fig5Row, error) {
	out, err := newRunner(s).Run(ctx, fig5Specs(s, reg))
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	i := 0
	for _, model := range s.Models {
		var ideal, fwd, bwd []float64
		for range s.Seeds {
			ideal = append(ideal, out[i].Result.FinalTestAcc)
			fwd = append(fwd, out[i+1].Result.FinalTestAcc)
			bwd = append(bwd, out[i+2].Result.FinalTestAcc)
			i += 3
		}
		row := Fig5Row{
			Model: model, IdealAcc: mean(ideal),
			ForwardAcc: mean(fwd), BackwardAcc: mean(bwd),
		}
		row.BackwardWorse = row.BackwardAcc < row.ForwardAcc
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Row reports one (model, policy) accuracy cell.
type Fig6Row struct {
	Model    string
	Policy   string
	Accuracy float64
	// DropVsIdeal is idealAcc − accuracy for the same model.
	DropVsIdeal float64
	Swaps       int
	Unmatched   int
}

// Fig6 reproduces the policy comparison under combined pre- and
// post-deployment faults. Policies run in PolicyNames order; the "ideal"
// row is the fault-free reference.
func Fig6(ctx context.Context, s Scale, reg FaultRegime, policies []string) ([]Fig6Row, error) {
	if len(policies) == 0 {
		policies = PolicyNames()
	}
	out, err := newRunner(s).Run(ctx, fig6Specs(s, reg, policies))
	if err != nil {
		return nil, err
	}
	var rows []Fig6Row
	i := 0
	for _, model := range s.Models {
		idealAcc := 0.0
		for _, policy := range policies {
			var accs []float64
			swaps, unmatched := 0, 0
			for range s.Seeds {
				res := out[i].Result
				i++
				accs = append(accs, res.FinalTestAcc)
				swaps += res.Swaps
				unmatched += res.Unmatched
			}
			acc := mean(accs)
			if policy == "ideal" {
				idealAcc = acc
			}
			rows = append(rows, Fig6Row{
				Model: model, Policy: policy, Accuracy: acc,
				DropVsIdeal: idealAcc - acc, Swaps: swaps, Unmatched: unmatched,
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Row is one cell of the post-deployment (m, n) sweep.
type Fig7Row struct {
	Model    string
	M        float64 // new-fault cell fraction per victim crossbar
	N        float64 // victim crossbar fraction per epoch
	Accuracy float64
	IdealAcc float64
	Drop     float64
}

// Fig7 reproduces the post-deployment robustness sweep for the given
// models (the paper uses VGG-19 and ResNet-12) under Remap-D, varying the
// per-epoch wear parameters. ms and ns are the sweep axes; the compressed
// schedule means the paper's (0.1–1%, 0.1–2%) axes map to roughly 6× these
// values here.
func Fig7(ctx context.Context, s Scale, reg FaultRegime, sweepModels []string, ms, ns []float64) ([]Fig7Row, error) {
	out, err := newRunner(s).Run(ctx, fig7Specs(s, reg, sweepModels, ms, ns))
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	i := 0
	for _, model := range sweepModels {
		var idealAccs []float64
		for range s.Seeds {
			idealAccs = append(idealAccs, out[i].Result.FinalTestAcc)
			i++
		}
		idealAcc := mean(idealAccs)
		for _, m := range ms {
			for _, n := range ns {
				var accs []float64
				for range s.Seeds {
					accs = append(accs, out[i].Result.FinalTestAcc)
					i++
				}
				acc := mean(accs)
				rows = append(rows, Fig7Row{
					Model: model, M: m, N: n,
					Accuracy: acc, IdealAcc: idealAcc, Drop: idealAcc - acc,
				})
			}
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Row reports scalability to harder datasets.
type Fig8Row struct {
	Dataset     string
	Model       string
	IdealAcc    float64
	NoProtAcc   float64
	RemapDAcc   float64
	NoProtDrop  float64
	RemapDDrop  float64
	RemapDBeats bool
}

// Fig8 reproduces the scalability study on the CIFAR-100-like and
// SVHN-like datasets with the same fault regime as Fig. 6.
func Fig8(ctx context.Context, s Scale, reg FaultRegime) ([]Fig8Row, error) {
	sets := []string{"cifar100-like", "svhn-like"}
	policies := []string{"ideal", "none", "remap-d"}
	out, err := newRunner(s).Run(ctx, fig8Specs(s, reg))
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	i := 0
	for _, set := range sets {
		for _, model := range s.Models {
			// Aggregate per policy position (ideal, none, remap-d) rather
			// than through a string-keyed map, so accumulation order is
			// fixed by the policies slice.
			accs := make([][]float64, len(policies))
			for pi := range policies {
				for range s.Seeds {
					accs[pi] = append(accs[pi], out[i].Result.FinalTestAcc)
					i++
				}
			}
			row := Fig8Row{
				Dataset: set, Model: model,
				IdealAcc:  mean(accs[0]),
				NoProtAcc: mean(accs[1]),
				RemapDAcc: mean(accs[2]),
			}
			row.NoProtDrop = row.IdealAcc - row.NoProtAcc
			row.RemapDDrop = row.IdealAcc - row.RemapDAcc
			row.RemapDBeats = row.RemapDAcc > row.NoProtAcc
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatFig4 renders Fig. 4 rows as an aligned text table.
func FormatFig4(rows []Fig4Row) string {
	out := fmt.Sprintf("%-4s %7s %12s %12s %12s %10s\n", "kind", "faults", "mean(µA)", "min(µA)", "max(µA)", "separated")
	for _, r := range rows {
		out += fmt.Sprintf("%-4s %7d %12.3f %12.3f %12.3f %10v\n",
			r.Kind, r.Faults, r.MeanMicroA, r.MinMicroA, r.MaxMicroA, r.Separated)
	}
	return out
}

// FormatFig5 renders Fig. 5 rows.
func FormatFig5(rows []Fig5Row) string {
	out := fmt.Sprintf("%-12s %8s %9s %9s %15s\n", "model", "ideal", "fwd-inj", "bwd-inj", "backward-worse")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %8.3f %9.3f %9.3f %15v\n",
			r.Model, r.IdealAcc, r.ForwardAcc, r.BackwardAcc, r.BackwardWorse)
	}
	return out
}

// FormatFig6 renders Fig. 6 rows.
func FormatFig6(rows []Fig6Row) string {
	out := fmt.Sprintf("%-12s %-11s %9s %10s %6s %9s\n", "model", "policy", "accuracy", "drop", "swaps", "unmatched")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %-11s %9.3f %10.3f %6d %9d\n",
			r.Model, r.Policy, r.Accuracy, r.DropVsIdeal, r.Swaps, r.Unmatched)
	}
	return out
}

// FormatFig7 renders Fig. 7 rows.
func FormatFig7(rows []Fig7Row) string {
	out := fmt.Sprintf("%-12s %7s %7s %9s %8s %7s\n", "model", "m", "n", "accuracy", "ideal", "drop")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %6.2f%% %6.2f%% %9.3f %8.3f %7.3f\n",
			r.Model, 100*r.M, 100*r.N, r.Accuracy, r.IdealAcc, r.Drop)
	}
	return out
}

// FormatFig8 renders Fig. 8 rows.
func FormatFig8(rows []Fig8Row) string {
	out := fmt.Sprintf("%-14s %-12s %7s %8s %8s %10s %10s\n",
		"dataset", "model", "ideal", "no-prot", "remap-d", "noprot-drop", "rd-drop")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %-12s %7.3f %8.3f %8.3f %10.3f %10.3f\n",
			r.Dataset, r.Model, r.IdealAcc, r.NoProtAcc, r.RemapDAcc, r.NoProtDrop, r.RemapDDrop)
	}
	return out
}
