package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"

	"remapd/internal/arch"
	"remapd/internal/checkpoint"
	"remapd/internal/dataset"
	"remapd/internal/obs"
	"remapd/internal/trainer"
)

// This file is the cell API. A CellSpec is one experiment cell expressed
// as pure coordinates — scalar parameters that JSON-round-trip
// byte-identically — and Execute is the only way to run one. The
// in-process executor and the dist worker both call Execute on the same
// spec, so their results are byte-identical by construction. What each
// kind varies lives in spec_kinds.go.

// ScaleSpec is the serializable part of Scale: every knob a cell's
// result depends on, none of the scheduling/observation machinery
// (Workers, Progress, Checkpoints, Metrics, Exec stay behind on the
// coordinator or are re-bound worker-side via Runtime).
type ScaleSpec struct {
	Name         string        `json:"name"`
	ImgSize      int           `json:"img_size"`
	TrainN       int           `json:"train_n"`
	TestN        int           `json:"test_n"`
	WidthScale   float64       `json:"width_scale"`
	Epochs       int           `json:"epochs"`
	BatchSize    int           `json:"batch_size"`
	LR           float64       `json:"lr"`
	CrossbarSize int           `json:"crossbar_size"`
	Geom         arch.Geometry `json:"geom"`
}

// Runtime carries the process-local facilities a cell needs at execution
// time but that cannot travel in a spec: the checkpoint store and the
// telemetry sink. The coordinator and its workers point these at shared
// directories, which is how results survive worker crashes.
type Runtime struct {
	Checkpoints *checkpoint.Store
	Metrics     *obs.Sink
}

// DatasetSpec names a deterministic in-process dataset generator plus its
// parameters. Workers rebuild datasets from the spec; generation is a pure
// function of (name, sizes, seed), so every process derives identical
// tensors.
type DatasetSpec struct {
	Name  string `json:"name"` // cifar10-like, cifar100-like, svhn-like
	Train int    `json:"train"`
	Test  int    `json:"test"`
	Img   int    `json:"img"`
	Seed  uint64 `json:"seed"`
}

// datasets maps each DatasetSpec name to its generator, class count, and
// the seed and training-set multiple every figure and tool builds it
// with. A tool's -dataset name is the spec name without "-like".
var datasets = map[string]struct {
	gen      func(nTrain, nTest, size int, seed uint64) *dataset.Dataset
	classes  int
	seed     uint64
	trainMul int // cifar100 trains on twice the samples
}{
	"cifar10-like":  {dataset.CIFAR10Like, 10, 77, 1},
	"cifar100-like": {dataset.CIFAR100Like, 100, 88, 2},
	"svhn-like":     {dataset.SVHNLike, 10, 99, 1},
}

// datasetAt returns the spec of the named dataset (a datasets key) at the
// scale.
func datasetAt(name string, s ScaleSpec) DatasetSpec {
	d := datasets[name]
	return DatasetSpec{Name: name, Train: s.TrainN * d.trainMul, Test: s.TestN, Img: s.ImgSize, Seed: d.seed}
}

// NamedDataset returns the dataset a tool's -dataset name (cifar10,
// cifar100, svhn) selects at the scale, and its class count.
func NamedDataset(name string, s ScaleSpec) (DatasetSpec, int, error) {
	set, ok := datasets[name+"-like"]
	if !ok {
		return DatasetSpec{}, 0, fmt.Errorf("experiments: unknown dataset %q (want cifar10, cifar100 or svhn)", name)
	}
	return datasetAt(name+"-like", s), set.classes, nil
}

// datasetCache memoizes generated datasets per process, so a grid of cells
// sharing one dataset builds it once. Datasets are read-only after
// construction, so sharing across concurrent cells is safe.
var datasetCache = struct {
	sync.Mutex
	m map[DatasetSpec]*dataset.Dataset
}{m: map[DatasetSpec]*dataset.Dataset{}}

// Build returns the (possibly cached) dataset for the spec.
func (d DatasetSpec) Build() (*dataset.Dataset, error) {
	set, ok := datasets[d.Name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset spec %q", d.Name)
	}
	datasetCache.Lock()
	defer datasetCache.Unlock()
	ds, ok := datasetCache.m[d]
	if !ok {
		ds = set.gen(d.Train, d.Test, d.Img, d.Seed)
		datasetCache.m[d] = ds
	}
	return ds, nil
}

// CellSpec is the description of one experiment cell: its kind (which
// figure or ablation it belongs to, see spec_kinds.go) and every
// coordinate it needs. The zero values of the kind-specific fields
// (Phase…UseBIST) are valid — each kind reads only its own — and
// omitempty keeps the JSON minimal and exactly re-encodable.
type CellSpec struct {
	Kind    string      `json:"kind"`
	Key     CellKey     `json:"key"`
	Scale   ScaleSpec   `json:"scale"`
	Regime  FaultRegime `json:"regime"`
	Dataset DatasetSpec `json:"dataset"`
	Classes int         `json:"classes"`

	// Kind-specific coordinates.
	Phase          string  `json:"phase,omitempty"`           // phase: "", forward, backward
	Threshold      float64 `json:"threshold,omitempty"`       // threshold: Remap-D trigger
	RandomReceiver bool    `json:"random_receiver,omitempty"` // receiver
	SimulateNoC    bool    `json:"simulate_noc,omitempty"`    // every kind: flit-level remap handshake
	Coding         string  `json:"coding,omitempty"`          // coding: offset, differential
	UseBIST        bool    `json:"use_bist,omitempty"`        // bist-sense
}

// Execute runs the cell in this process with the given runtime
// facilities. It is the single run path: the in-process executor and the
// dist worker both call it, which is what makes the two byte-identical.
// The result depends only on the spec, never on which process runs it. A
// panic inside the cell becomes an error, so a bad cell kills the cell,
// not the grid or the worker; callers prefix errors with the cell key.
func (sp *CellSpec) Execute(ctx context.Context, rt Runtime, logf Logf) (res *trainer.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return sp.run(ctx, rt, logf)
}

// EncodeSpec renders the canonical single-line JSON form the dist
// protocol embeds; DecodeSpec of its output re-encodes to the same bytes.
func EncodeSpec(sp *CellSpec) ([]byte, error) {
	data, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("experiments: encode cell spec %s: %w", sp.Key, err)
	}
	return data, nil
}

// DecodeSpec parses a spec encoded by EncodeSpec. Specs arrive from
// outside the process, so it rejects unknown fields and trailing data,
// unknown kind, dataset, policy, phase and coding names, non-positive
// sizes, counts and geometry, images too small for the models, and image
// sizes or class counts that disagree with the dataset, each with a clean
// error instead of a panic deep inside training.
func DecodeSpec(data []byte) (*CellSpec, error) {
	sp := &CellSpec{}
	if err := obs.DecodeStrict(data, sp); err != nil {
		return nil, fmt.Errorf("experiments: decode cell spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return nil, fmt.Errorf("experiments: decode cell spec %s: %w", sp.Key, err)
	}
	return sp, nil
}

// minImgSize is the smallest image every model and dataset generator
// handles: cnn-s pools its input twice, and CIFAR10Like needs at least 2.
const minImgSize = 4

// validate checks what DecodeSpec promises. The names are checked by
// resolving them exactly as run does (trainConfig builds nothing heavy);
// the sizes are checked here, before any tensor is allocated.
func (sp *CellSpec) validate() error {
	if _, _, err := sp.trainConfig(); err != nil {
		return err
	}
	set, ok := datasets[sp.Dataset.Name]
	if !ok {
		return fmt.Errorf("unknown dataset %q", sp.Dataset.Name)
	}
	sc, g := sp.Scale, sp.Scale.Geom
	for _, f := range []struct {
		name string
		v    int
	}{
		{"scale.train_n", sc.TrainN}, {"scale.test_n", sc.TestN}, {"scale.epochs", sc.Epochs},
		{"scale.batch_size", sc.BatchSize}, {"scale.crossbar_size", sc.CrossbarSize},
		{"scale.geom.TilesX", g.TilesX}, {"scale.geom.TilesY", g.TilesY},
		{"scale.geom.IMAsPerTile", g.IMAsPerTile}, {"scale.geom.XbarsPerIMA", g.XbarsPerIMA},
		{"dataset.train", sp.Dataset.Train}, {"dataset.test", sp.Dataset.Test},
	} {
		if f.v <= 0 {
			return fmt.Errorf("%s must be positive, got %d", f.name, f.v)
		}
	}
	switch {
	case sc.ImgSize < minImgSize:
		return fmt.Errorf("scale.img_size must be at least %d, got %d", minImgSize, sc.ImgSize)
	case sp.Dataset.Img != sc.ImgSize:
		return fmt.Errorf("dataset.img %d differs from scale.img_size %d", sp.Dataset.Img, sc.ImgSize)
	case sp.Classes != set.classes:
		return fmt.Errorf("classes %d differs from %s's %d", sp.Classes, sp.Dataset.Name, set.classes)
	}
	return nil
}
