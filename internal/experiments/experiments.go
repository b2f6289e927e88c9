// Package experiments regenerates every table and figure of the paper's
// evaluation section. Each Fig*/Overhead* function runs the corresponding
// experiment end-to-end on the simulated RCS and returns typed rows; the
// cmd/ tools and the top-level benchmarks print them. See DESIGN.md §4 for
// the experiment↔module index and EXPERIMENTS.md for recorded results.
//
// Scaling: the original evaluation trains full-width CNNs for 50 epochs on
// a GPU cluster; this reproduction runs width-scaled models for few epochs
// on CPU. Two scaling rules keep the fault regime comparable (DESIGN.md §2):
// crossbar size shrinks with model width (so array utilisation matches),
// and the fault schedule is compressed (hot-band density and per-epoch
// wear scaled by ≈6×, matching the ~8× reduction in accumulation epochs).
package experiments

import (
	"fmt"

	"remapd/internal/arch"
	"remapd/internal/checkpoint"
	"remapd/internal/dataset"
	"remapd/internal/fault"
	"remapd/internal/models"
	"remapd/internal/nn"
	"remapd/internal/obs"
	"remapd/internal/remap"
	"remapd/internal/reram"
	"remapd/internal/trainer"
)

// Scale bundles every size knob of a reproduction run: the serializable
// coordinates a cell's result depends on (ScaleSpec), the grid axes, and
// the process-local scheduling and observation machinery.
type Scale struct {
	ScaleSpec
	Models []string
	Seeds  []uint64

	// Workers bounds how many experiment cells the runner executes
	// concurrently (<=0 means GOMAXPROCS). Results are identical for any
	// value — see runner.go's determinism contract.
	Workers int
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(format string, args ...interface{})
	// Checkpoints, when non-nil, makes every cell crash-safe: the trainer
	// snapshots the full run state after each epoch, completed cells are
	// skipped on re-run, and interrupted cells resume bit-identically.
	Checkpoints *checkpoint.Store
	// Metrics, when non-nil, gives every cell its own telemetry trace and
	// persists it (metrics.json + events.jsonl per cell) when the cell
	// finishes. Like the other observation-only knobs it is not part of
	// the cell's spec, so not of its checkpoint fingerprint: recording
	// cannot change results, so a checkpoint is equally valid with
	// telemetry on or off. Note that a resumed cell's trace covers only
	// the epochs it actually replayed.
	Metrics *obs.Sink
	// Exec, when non-nil, runs cells through an alternative executor
	// (e.g. dist.Fleet ships them to worker processes). Scheduling
	// only: results must be byte-identical to in-process execution.
	Exec CellExecutor
	// Spans, when non-nil, records a lifecycle span per cell (queue /
	// wire / run attribution — see obs.SpanRecorder). Observation-only,
	// like Metrics.
	Spans *obs.SpanRecorder
	// Status, when non-nil, receives live grid-progress and span
	// sections for the /status endpoint. Observation-only.
	Status *obs.Status
}

// QuickScale is the benchmark-sized configuration: two models, one seed,
// small data — every experiment finishes in CPU-minutes.
func QuickScale() Scale {
	return Scale{
		ScaleSpec: ScaleSpec{
			Name: "quick", ImgSize: 16, TrainN: 384, TestN: 256,
			WidthScale: 0.125, Epochs: 5, BatchSize: 32, LR: 0.05,
			CrossbarSize: 32,
			Geom:         arch.Geometry{TilesX: 8, TilesY: 8, IMAsPerTile: 2, XbarsPerIMA: 4},
		},
		Models: []string{"vgg11", "resnet12"},
		Seeds:  []uint64{1},
	}
}

// StandardScale is the full reproduction: all six CNNs of the paper,
// multiple seeds. Budget tens of CPU-minutes per figure.
func StandardScale() Scale {
	s := QuickScale()
	s.Name = "standard"
	s.TrainN, s.TestN = 512, 512
	s.Epochs = 6
	s.Models = []string{"vgg11", "vgg16", "vgg19", "resnet12", "resnet18", "squeezenet"}
	s.Seeds = []uint64{1, 2, 3}
	return s
}

// FaultRegime is the compressed-schedule fault configuration (see the
// package comment): the paper's 20%-hot clustered pre-deployment profile
// with the hot band at 4–10%, and concentrated per-epoch endurance wear.
type FaultRegime struct {
	Pre            fault.PreProfile
	Post           fault.PostModel
	RemapThreshold float64
	PhaseDensity   float64 // Fig. 5 targeted injection density
}

// DefaultRegime returns the calibrated reproduction regime.
func DefaultRegime() FaultRegime {
	pre := fault.DefaultPreProfile()
	pre.HighDensity = [2]float64{0.04, 0.10}
	pre.LowDensity = [2]float64{0, 0.004}
	post := fault.DefaultPostModel()
	post.CrossbarFraction = 0.01
	post.CellFraction = 0.03
	return FaultRegime{
		Pre:            pre,
		Post:           post,
		RemapThreshold: 0.02,
		PhaseDensity:   0.02, // the paper's Fig. 5 uses 2%
	}
}

// PaperRegime returns the paper's literal fault numbers (Fig. 6 setting:
// hot band 0.4–1%, post 0.5% on 1% of crossbars per epoch). At reproduction
// scale these densities are nearly harmless (see DESIGN.md); provided for
// ablation.
func PaperRegime() FaultRegime {
	return FaultRegime{
		Pre:            fault.DefaultPreProfile(),
		Post:           fault.DefaultPostModel(),
		RemapThreshold: 0.004,
		PhaseDensity:   0.02,
	}
}

// NewChip builds a chip at the scale's technology point.
func NewChip(s Scale) *arch.Chip {
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = s.CrossbarSize
	return arch.NewChip(p, s.Geom)
}

// BuildModel constructs a registered model at the scale's geometry with an
// explicit class count.
func BuildModel(name string, s Scale, seed uint64, classes int) (*nn.Network, error) {
	return models.Build(name, models.Config{
		InC: 3, InH: s.ImgSize, InW: s.ImgSize, Classes: classes,
		WidthScale: s.WidthScale, BatchNorm: true, Seed: seed,
	})
}

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// PolicyByName constructs a policy for the regime (the Remap-D threshold
// comes from the regime).
func PolicyByName(name string, reg FaultRegime) (remap.Policy, bool, error) {
	switch name {
	case "none":
		return remap.None{}, false, nil
	case "static":
		return remap.Static{}, false, nil
	case "an-code":
		return remap.NewANCode(), false, nil
	case "remap-ws":
		return remap.NewRemapWS(), false, nil
	case "remap-t-5":
		return remap.NewRemapT(0.05), true, nil
	case "remap-t-10":
		return remap.NewRemapT(0.10), true, nil
	case "remap-d":
		rd := remap.NewRemapD()
		rd.Threshold = reg.RemapThreshold
		return rd, false, nil
	case "ideal":
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("experiments: unknown policy %q", name)
}

// PolicyNames lists the Fig. 6 policy columns in presentation order.
func PolicyNames() []string {
	return []string{"ideal", "none", "static", "an-code", "remap-ws", "remap-t-5", "remap-t-10", "remap-d"}
}

// train runs the trainer for one cell, attaching a streaming telemetry
// trace when the scale has a metrics sink: events flush to disk at every
// epoch boundary (bounded memory, crash-truncated rather than lost logs)
// and the remainder flushes on Close. The trace is persisted even when
// training fails — a failed cell's partial trace is evidence — but a
// flush error only surfaces when training itself succeeded.
func (s Scale) train(key CellKey, net *nn.Network, ds *dataset.Dataset, cfg trainer.Config) (*trainer.Result, error) {
	if s.Metrics == nil {
		return trainer.Train(net, ds, cfg)
	}
	st, err := s.Metrics.Stream(checkpoint.CellFileBase(key.String()), key.String())
	if err != nil {
		return nil, err
	}
	cfg.Obs = st
	res, err := trainer.Train(net, ds, cfg)
	if cerr := st.Close(); cerr != nil && err == nil {
		return nil, cerr
	}
	return res, err
}
