package experiments

import (
	"context"
	"fmt"

	"remapd/internal/arch"
	"remapd/internal/fault"
	"remapd/internal/remap"
	"remapd/internal/reram"
	"remapd/internal/trainer"
)

// This file defines the cell kinds and the spec builders the figure
// functions enumerate cells with. Every kind is one training run built by
// the same code (run); a kind only decides the few trainer knobs that
// differ between figures (trainConfig):
//
//   - policy: Fig. 6/7/8, the named policy under the regime's faults;
//   - phase: Fig. 5, faults injected into one phase's crossbars only;
//   - threshold, receiver, bist-sense: Remap-D ablations overriding its
//     trigger threshold, its receiver choice (with the flit-level NoC),
//     or its density source;
//   - coding: the named policy on a chip with the spec's coding scheme;
//   - endurance: the named policy with physical (Weibull) wear-out from
//     write counts in place of the regime's post-deployment model.
//
// SimulateNoC applies to every kind.

// trainConfig resolves the spec's kind and names into the trainer config
// and device parameters its cell trains with. It builds nothing heavy —
// no dataset, model or chip — so DecodeSpec uses it as its name check.
// The returned config wants a chip exactly when it has a policy or a
// phase injection.
func (sp *CellSpec) trainConfig() (trainer.Config, reram.DeviceParams, error) {
	reg := sp.Regime
	cfg := trainer.DefaultConfig()
	cfg.Epochs = sp.Scale.Epochs
	cfg.BatchSize = sp.Scale.BatchSize
	cfg.LR = sp.Scale.LR
	cfg.Seed = sp.Key.Seed
	cfg.SimulateNoC = sp.SimulateNoC
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = sp.Scale.CrossbarSize
	var err error
	switch sp.Kind {
	case "policy", "coding":
		cfg.Policy, cfg.TrackGradAbs, err = PolicyByName(sp.Key.Policy, reg)
		if err == nil && sp.Kind == "coding" {
			p.Coding, err = parseCoding(sp.Coding)
		}
	case "phase":
		switch sp.Phase {
		case "": // ideal: no chip, no injection
		case "forward":
			cfg.PhaseInject = &trainer.PhaseInjection{Phase: arch.Forward, Density: reg.PhaseDensity}
		case "backward":
			cfg.PhaseInject = &trainer.PhaseInjection{Phase: arch.Backward, Density: reg.PhaseDensity}
		default:
			err = fmt.Errorf("experiments: bad phase %q in cell spec", sp.Phase)
		}
	case "threshold", "receiver", "bist-sense":
		rd := remap.NewRemapD()
		rd.Threshold = reg.RemapThreshold
		switch sp.Kind {
		case "threshold":
			rd.Threshold = sp.Threshold
		case "receiver":
			rd.RandomReceiver = sp.RandomReceiver
		case "bist-sense":
			rd.UseBIST = sp.UseBIST
		}
		cfg.Policy = rd
	case "endurance":
		cfg.Policy, cfg.TrackGradAbs, err = PolicyByName(sp.Key.Policy, reg)
		if cfg.Policy != nil {
			cfg.Endurance = fault.NewEnduranceModel()
			cfg.Endurance.CharacteristicLife = 100 // compressed for few-epoch runs
		}
	default:
		err = fmt.Errorf("experiments: unknown cell kind %q", sp.Kind)
	}
	if cfg.Policy != nil {
		cfg.Pre = &reg.Pre
		if cfg.Endurance == nil {
			cfg.Post = &reg.Post
		}
	}
	return cfg, p, err
}

// parseCoding maps the spec's coding name back to the scheme constant
// (the inverse of CodingScheme.String).
func parseCoding(name string) (reram.CodingScheme, error) {
	switch name {
	case "offset":
		return reram.OffsetCoding, nil
	case "differential":
		return reram.DifferentialCoding, nil
	}
	return 0, fmt.Errorf("experiments: unknown coding scheme %q in cell spec", name)
}

// run trains the cell: dataset (through the per-process cache), model,
// chip and trainer config, all built once from the spec. The encoded spec
// is the checkpoint fingerprint, so every coordinate that shapes the
// result is in it by construction and nothing that cannot (scheduling,
// observation) is: a snapshot resumes only under the spec that wrote it.
func (sp *CellSpec) run(ctx context.Context, rt Runtime, logf Logf) (*trainer.Result, error) {
	cfg, p, err := sp.trainConfig()
	if err != nil {
		return nil, err
	}
	ds, err := sp.Dataset.Build()
	if err != nil {
		return nil, err
	}
	s := Scale{ScaleSpec: sp.Scale, Metrics: rt.Metrics}
	net, err := BuildModel(sp.Key.Model, s, sp.Key.Seed, sp.Classes)
	if err != nil {
		return nil, err
	}
	cfg.Ctx = ctx
	cfg.Logf = logf
	if rt.Checkpoints != nil {
		fingerprint, err := EncodeSpec(sp)
		if err != nil {
			return nil, err
		}
		cfg.Checkpoint = rt.Checkpoints.Cell(sp.Key.String(), string(fingerprint))
	}
	if cfg.Policy != nil || cfg.PhaseInject != nil {
		cfg.Chip = arch.NewChip(p, s.Geom)
	}
	return s.train(sp.Key, net, ds, cfg)
}

// ------------------------------------------------------------ spec builders
//
// Each builder enumerates one figure/ablation's cells in the exact order
// the rows' aggregation indices expect. The figure functions hand them to
// the runner; the spec tests round-trip them; a dist run ships them as-is.

// cifar10Spec is the shared Fig. 5/6/7 and ablation dataset at the scale.
func cifar10Spec(s Scale) DatasetSpec { return datasetAt("cifar10-like", s.ScaleSpec) }

// fig5Specs enumerates the phase fault-tolerance grid.
func fig5Specs(s Scale, reg FaultRegime) []*CellSpec {
	variants := []struct {
		name  string
		phase string
	}{
		{"ideal", ""},
		{"inject-forward", "forward"},
		{"inject-backward", "backward"},
	}
	var specs []*CellSpec
	for _, model := range s.Models {
		for _, seed := range s.Seeds {
			for _, v := range variants {
				specs = append(specs, &CellSpec{
					Kind:    "phase",
					Key:     CellKey{Model: model, Policy: v.name, Seed: seed},
					Scale:   s.ScaleSpec,
					Regime:  reg,
					Dataset: cifar10Spec(s),
					Classes: 10,
					Phase:   v.phase,
				})
			}
		}
	}
	return specs
}

// fig6Specs enumerates the policy-comparison grid.
func fig6Specs(s Scale, reg FaultRegime, policies []string) []*CellSpec {
	var specs []*CellSpec
	for _, model := range s.Models {
		for _, policy := range policies {
			for _, seed := range s.Seeds {
				specs = append(specs, &CellSpec{
					Kind:    "policy",
					Key:     CellKey{Model: model, Policy: policy, Seed: seed},
					Scale:   s.ScaleSpec,
					Regime:  reg,
					Dataset: cifar10Spec(s),
					Classes: 10,
				})
			}
		}
	}
	return specs
}

// fig7Specs enumerates the post-deployment (m, n) sweep: per model, the
// ideal baseline cells followed by the Remap-D cells at each sweep point
// (each carrying its modified regime, which is part of its checkpoint
// fingerprint like every other coordinate).
func fig7Specs(s Scale, reg FaultRegime, sweepModels []string, ms, ns []float64) []*CellSpec {
	var specs []*CellSpec
	for _, model := range sweepModels {
		for _, seed := range s.Seeds {
			specs = append(specs, &CellSpec{
				Kind:    "policy",
				Key:     CellKey{Model: model, Policy: "ideal", Seed: seed},
				Scale:   s.ScaleSpec,
				Regime:  reg,
				Dataset: cifar10Spec(s),
				Classes: 10,
			})
		}
		for _, m := range ms {
			for _, n := range ns {
				r := reg
				r.Post.CellFraction = m
				r.Post.CrossbarFraction = n
				for _, seed := range s.Seeds {
					specs = append(specs, &CellSpec{
						Kind: "policy",
						Key: CellKey{Model: model, Policy: "remap-d", Seed: seed,
							Extra: fmt.Sprintf("m%g-n%g", m, n)},
						Scale:   s.ScaleSpec,
						Regime:  r,
						Dataset: cifar10Spec(s),
						Classes: 10,
					})
				}
			}
		}
	}
	return specs
}

// fig8Specs enumerates the scalability grid over the harder datasets.
func fig8Specs(s Scale, reg FaultRegime) []*CellSpec {
	policies := []string{"ideal", "none", "remap-d"}
	var specs []*CellSpec
	for _, set := range []string{"cifar100-like", "svhn-like"} {
		for _, model := range s.Models {
			for _, policy := range policies {
				for _, seed := range s.Seeds {
					specs = append(specs, &CellSpec{
						Kind:    "policy",
						Key:     CellKey{Model: model, Policy: policy, Seed: seed, Extra: set},
						Scale:   s.ScaleSpec,
						Regime:  reg,
						Dataset: datasetAt(set, s.ScaleSpec),
						Classes: datasets[set].classes,
					})
				}
			}
		}
	}
	return specs
}

// ablationThresholdSpecs enumerates the trigger-threshold sweep.
func ablationThresholdSpecs(s Scale, reg FaultRegime, model string, thresholds []float64) []*CellSpec {
	var specs []*CellSpec
	for _, th := range thresholds {
		for _, seed := range s.Seeds {
			specs = append(specs, &CellSpec{
				Kind: "threshold",
				Key: CellKey{Model: model, Policy: "remap-d", Seed: seed,
					Extra: fmt.Sprintf("th%g", th)},
				Scale:     s.ScaleSpec,
				Regime:    reg,
				Dataset:   cifar10Spec(s),
				Classes:   10,
				Threshold: th,
			})
		}
	}
	return specs
}

// ablationReceiverSpecs enumerates the receiver-selection comparison.
func ablationReceiverSpecs(s Scale, reg FaultRegime, model string) []*CellSpec {
	selections := []struct {
		name   string
		random bool
	}{{"nearest", false}, {"random", true}}
	var specs []*CellSpec
	for _, sel := range selections {
		for _, seed := range s.Seeds {
			specs = append(specs, &CellSpec{
				Kind:           "receiver",
				Key:            CellKey{Model: model, Policy: "remap-d", Seed: seed, Extra: sel.name},
				Scale:          s.ScaleSpec,
				Regime:         reg,
				Dataset:        cifar10Spec(s),
				Classes:        10,
				RandomReceiver: sel.random,
				SimulateNoC:    true,
			})
		}
	}
	return specs
}

// ablationCodingSpecs enumerates the coding-scheme comparison.
func ablationCodingSpecs(s Scale, reg FaultRegime, model string) []*CellSpec {
	codings := []reram.CodingScheme{reram.OffsetCoding, reram.DifferentialCoding}
	policies := []string{"ideal", "none", "remap-d"}
	var specs []*CellSpec
	for _, coding := range codings {
		for _, policy := range policies {
			for _, seed := range s.Seeds {
				specs = append(specs, &CellSpec{
					Kind:    "coding",
					Key:     CellKey{Model: model, Policy: policy, Seed: seed, Extra: coding.String()},
					Scale:   s.ScaleSpec,
					Regime:  reg,
					Dataset: cifar10Spec(s),
					Classes: 10,
					Coding:  coding.String(),
				})
			}
		}
	}
	return specs
}

// ablationBISTSpecs enumerates the sensing-source comparison.
func ablationBISTSpecs(s Scale, reg FaultRegime, model string) []*CellSpec {
	sources := []struct {
		name    string
		useBIST bool
	}{{"bist", true}, {"truth", false}}
	var specs []*CellSpec
	for _, src := range sources {
		for _, seed := range s.Seeds {
			specs = append(specs, &CellSpec{
				Kind:    "bist-sense",
				Key:     CellKey{Model: model, Policy: "remap-d", Seed: seed, Extra: src.name},
				Scale:   s.ScaleSpec,
				Regime:  reg,
				Dataset: cifar10Spec(s),
				Classes: 10,
				UseBIST: src.useBIST,
			})
		}
	}
	return specs
}
