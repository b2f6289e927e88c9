package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/checkpoint"
	"remapd/internal/dataset"
	"remapd/internal/fault"
	"remapd/internal/models"
	"remapd/internal/obs"
	"remapd/internal/trainer"
)

// allSpecs enumerates every spec the figure/ablation builders and
// remapd-train can emit, so the round-trip, validation and fuzz tests
// cover the full grid surface.
func allSpecs(t testing.TB) []*CellSpec {
	t.Helper()
	s := determinismScale()
	reg := DefaultRegime()
	var specs []*CellSpec
	specs = append(specs, fig5Specs(s, reg)...)
	specs = append(specs, fig6Specs(s, reg, []string{"ideal", "none", "remap-d"})...)
	specs = append(specs, fig7Specs(s, reg, []string{"cnn-s"}, []float64{0.005, 0.03}, []float64{0.01})...)
	specs = append(specs, fig8Specs(s, reg)...)
	specs = append(specs, ablationThresholdSpecs(s, reg, "cnn-s", []float64{0.004, 0.02})...)
	specs = append(specs, ablationReceiverSpecs(s, reg, "cnn-s")...)
	specs = append(specs, ablationCodingSpecs(s, reg, "cnn-s")...)
	specs = append(specs, ablationBISTSpecs(s, reg, "cnn-s")...)
	// remapd-train's cells, including the kind only it emits.
	specs = append(specs, trainSpec(t, trainFlags{policy: "an-code", dataset: "svhn", noc: true, endurance: true}))
	if len(specs) == 0 {
		t.Fatal("no specs built")
	}
	return specs
}

// TestCellSpecRoundTripsByteIdentically is the wire contract: encode →
// decode → re-encode must reproduce the exact bytes, and the decoded spec
// must equal the original structurally. If this breaks, dist results stop
// being byte-identical to in-process ones.
func TestCellSpecRoundTripsByteIdentically(t *testing.T) {
	for _, sp := range allSpecs(t) {
		data, err := EncodeSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("decode %s: %v", sp.Key, err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Fatalf("spec %s changed across the wire:\n  sent %+v\n  got  %+v", sp.Key, sp, back)
		}
		again, err := EncodeSpec(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("spec %s re-encodes differently:\n  %s\n  %s", sp.Key, data, again)
		}
	}
}

// TestUnknownKindErrors: a kind outside the switch is an error both when
// a spec is decoded and when one built in-process is executed.
func TestUnknownKindErrors(t *testing.T) {
	sp := allSpecs(t)[0]
	sp.Kind = "no-such-kind"
	data, err := EncodeSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(data); err == nil || !strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("DecodeSpec err = %v, want an unknown-kind error", err)
	}
	if _, err := sp.Execute(context.Background(), Runtime{}, nil); err == nil || !strings.Contains(err.Error(), "no-such-kind") {
		t.Fatalf("Execute err = %v, want an unknown-kind error", err)
	}
}

// TestDecodeSpecRejectsBadCoordinates: every name and size DecodeSpec
// checks, one row each. Each row breaks one field of a valid spec; the
// sizes are the ones that would otherwise panic inside training.
func TestDecodeSpecRejectsBadCoordinates(t *testing.T) {
	base := func() *CellSpec {
		s := determinismScale()
		return fig6Specs(s, DefaultRegime(), []string{"remap-d"})[0]
	}
	for _, tc := range []struct {
		name   string
		mutate func(sp *CellSpec)
		want   string
	}{
		{"kind", func(sp *CellSpec) { sp.Kind = "bogus" }, "unknown cell kind"},
		{"policy", func(sp *CellSpec) { sp.Key.Policy = "bogus" }, "unknown policy"},
		{"phase", func(sp *CellSpec) { sp.Kind, sp.Phase = "phase", "sideways" }, "bad phase"},
		{"coding", func(sp *CellSpec) { sp.Kind, sp.Coding = "coding", "ternary" }, "unknown coding"},
		{"coding-missing", func(sp *CellSpec) { sp.Kind = "coding" }, "unknown coding"},
		{"dataset", func(sp *CellSpec) { sp.Dataset.Name = "mnist" }, "unknown dataset"},
		{"train_n", func(sp *CellSpec) { sp.Scale.TrainN = 0 }, "scale.train_n"},
		{"test_n", func(sp *CellSpec) { sp.Scale.TestN = -1 }, "scale.test_n"},
		{"epochs", func(sp *CellSpec) { sp.Scale.Epochs = 0 }, "scale.epochs"},
		{"batch_size", func(sp *CellSpec) { sp.Scale.BatchSize = 0 }, "scale.batch_size"},
		{"crossbar_size", func(sp *CellSpec) { sp.Scale.CrossbarSize = 0 }, "scale.crossbar_size"},
		{"tiles_x", func(sp *CellSpec) { sp.Scale.Geom.TilesX = 0 }, "scale.geom.TilesX"},
		{"tiles_y", func(sp *CellSpec) { sp.Scale.Geom.TilesY = 0 }, "scale.geom.TilesY"},
		{"imas_per_tile", func(sp *CellSpec) { sp.Scale.Geom.IMAsPerTile = 0 }, "scale.geom.IMAsPerTile"},
		{"xbars_per_ima", func(sp *CellSpec) { sp.Scale.Geom.XbarsPerIMA = 0 }, "scale.geom.XbarsPerIMA"},
		{"dataset.train", func(sp *CellSpec) { sp.Dataset.Train = 0 }, "dataset.train"},
		{"dataset.test", func(sp *CellSpec) { sp.Dataset.Test = 0 }, "dataset.test"},
		{"img_size-0", func(sp *CellSpec) { sp.Scale.ImgSize, sp.Dataset.Img = 0, 0 }, "scale.img_size"},
		{"img_size-1", func(sp *CellSpec) { sp.Scale.ImgSize, sp.Dataset.Img = 1, 1 }, "scale.img_size"},
		{"dataset.img", func(sp *CellSpec) { sp.Dataset.Img = 8 }, "dataset.img"},
		{"classes-0", func(sp *CellSpec) { sp.Classes = 0 }, "classes"},
		{"classes-mismatch", func(sp *CellSpec) { sp.Classes = 100 }, "classes"},
	} {
		sp := base()
		tc.mutate(sp)
		data, err := EncodeSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSpec(data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeSpec err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeSpec([]byte(`{"kind":`)); err == nil {
		t.Error("truncated JSON must not decode")
	}
}

// TestDecodeSpecIsStrict: a field the spec does not have, or anything
// after the JSON value, is an error rather than something to skip.
func TestDecodeSpecIsStrict(t *testing.T) {
	data, err := EncodeSpec(allSpecs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(data); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	extra := append([]byte(`{"WriteWeighted":true,`), data[1:]...)
	if _, err := DecodeSpec(extra); err == nil || !strings.Contains(err.Error(), "WriteWeighted") {
		t.Errorf("DecodeSpec of a spec with an extra field: err = %v, want one naming the field", err)
	}
	for _, tail := range []string{"{}", "x", `"more"`} {
		if _, err := DecodeSpec(append(slices.Clone(data), tail...)); err == nil {
			t.Errorf("DecodeSpec accepted trailing %q", tail)
		}
	}
	if _, err := DecodeSpec(append(slices.Clone(data), " \n"...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// FuzzDecodeSpec: DecodeSpec never panics, and whatever it accepts is a
// fixed point of decode→encode: a second round trip reproduces the same
// bytes and an equal spec.
func FuzzDecodeSpec(f *testing.F) {
	for _, sp := range allSpecs(f) {
		data, err := EncodeSpec(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := EncodeSpec(sp)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		again, err := EncodeSpec(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) || !reflect.DeepEqual(sp, back) {
			t.Fatalf("not a fixed point:\n  %s\n  %s", enc, again)
		}
	})
}

// TestCellFingerprintCoversEveryCoordinate: the checkpoint fingerprint
// is the encoded spec, so changing any leaf of any CellSpec field — found
// by walking the struct, so a new field is covered without editing this
// test — makes an old snapshot stale, while the observation-only Scale
// fields, which never reach the spec, leave it alone. A cell run with a
// checkpoint store records exactly that fingerprint.
func TestCellFingerprintCoversEveryCoordinate(t *testing.T) {
	s := determinismScale()
	reg := DefaultRegime()
	base := fig6Specs(s, reg, []string{"remap-d"})[0]
	fingerprint := func(sp *CellSpec) string {
		t.Helper()
		data, err := EncodeSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := fingerprint(base)

	leaves := specLeaves(reflect.ValueOf(*base), "", nil, nil)
	seen := map[string]bool{}
	for _, leaf := range leaves {
		seen[leaf.name] = true
		sp := *base // CellSpec holds no pointers, slices or maps: a deep copy
		v := reflect.ValueOf(&sp).Elem()
		for _, i := range leaf.index {
			if v.Kind() == reflect.Struct {
				v = v.Field(i)
			} else {
				v = v.Index(i)
			}
		}
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		default:
			t.Fatalf("%s: no mutation for kind %s", leaf.name, v.Kind())
		}
		if fingerprint(&sp) == want {
			t.Errorf("changing %s leaves the fingerprint unchanged", leaf.name)
		}
	}
	for _, name := range []string{
		".Kind", ".Phase", ".SimulateNoC", ".Coding", ".Threshold", ".UseBIST", ".RandomReceiver",
		".Dataset.Name", ".Dataset.Seed", ".Classes", ".Key.Model", ".Key.Policy", ".Key.Seed", ".Key.Extra",
		".Regime.Pre.HighDensity[1]", ".Regime.Post.CellFraction", ".Regime.RemapThreshold", ".Regime.PhaseDensity",
		".Scale.Name", ".Scale.Epochs", ".Scale.LR", ".Scale.Geom.XbarsPerIMA",
	} {
		if !seen[name] {
			t.Errorf("field walk missed %s", name)
		}
	}

	// Scheduling and observation knobs must not reach the fingerprint, or
	// changing -j or adding -metrics-dir would orphan every checkpoint.
	store, err := checkpoint.NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := obs.NewSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := s
	o.Workers = 7
	o.Progress = t.Logf
	o.Checkpoints = store
	o.Exec = localExecutor{}
	o.Metrics = sink
	o.Spans = obs.NewSpanRecorder()
	o.Status = obs.NewStatus()
	if got := fingerprint(fig6Specs(o, reg, []string{"remap-d"})[0]); got != want {
		t.Fatalf("observation-only scale fields changed the fingerprint:\n  %s\n  %s", got, want)
	}

	// The snapshot a checkpointed run leaves carries that fingerprint.
	if _, err := base.Execute(context.Background(), Runtime{Checkpoints: store}, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.LoadFile(store.Cell(base.Key.String(), want).Path())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint != want {
		t.Fatalf("snapshot fingerprint %q, want the encoded spec %q", snap.Fingerprint, want)
	}
}

// specLeaf is one scalar coordinate of a CellSpec: its Go field path and
// the reflect index path to it (field numbers, array indices).
type specLeaf struct {
	name  string
	index []int
}

// specLeaves appends every scalar leaf under v to out, descending into
// structs and arrays.
func specLeaves(v reflect.Value, name string, index []int, out []specLeaf) []specLeaf {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = specLeaves(v.Field(i), name+"."+v.Type().Field(i).Name, append(index[:len(index):len(index)], i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = specLeaves(v.Index(i), fmt.Sprintf("%s[%d]", name, i), append(index[:len(index):len(index)], i), out)
		}
	default:
		out = append(out, specLeaf{name, index})
	}
	return out
}

// trainFlags are the remapd-train flags that shape a cell.
type trainFlags struct {
	policy, phase, dataset string
	noc, paper, endurance  bool
}

// trainScale is remapd-train's scale at a test-sized -epochs/-train/
// -test/-width.
func trainScale() Scale {
	s := StandardScale()
	s.Epochs = 2
	s.TrainN, s.TestN = 128, 64
	s.WidthScale = 0.25
	return s
}

// trainSpec maps the flags onto a cell spec the way remapd-train does.
func trainSpec(t testing.TB, f trainFlags) *CellSpec {
	t.Helper()
	s := trainScale()
	reg := DefaultRegime()
	if f.paper {
		reg = PaperRegime()
	}
	ds, classes, err := NamedDataset(f.dataset, s.ScaleSpec)
	if err != nil {
		t.Fatal(err)
	}
	sp := &CellSpec{
		Kind:        "policy",
		Key:         CellKey{Model: "cnn-s", Policy: f.policy, Seed: 1, Extra: f.dataset},
		Scale:       s.ScaleSpec,
		Regime:      reg,
		Dataset:     ds,
		Classes:     classes,
		SimulateNoC: f.noc,
	}
	switch {
	case f.phase != "":
		sp.Kind, sp.Phase = "phase", f.phase
	case f.endurance:
		sp.Kind = "endurance"
	}
	return sp
}

// handBuiltTrain is the reference: the dataset, model and trainer config
// remapd-train used to build by hand for the same flags.
func handBuiltTrain(t *testing.T, f trainFlags) *trainer.Result {
	t.Helper()
	s := trainScale()
	reg := DefaultRegime()
	if f.paper {
		reg = PaperRegime()
	}
	var ds *dataset.Dataset
	classes := 10
	switch f.dataset {
	case "cifar10":
		ds = dataset.CIFAR10Like(s.TrainN, s.TestN, s.ImgSize, 77)
	case "cifar100":
		classes = 100
		ds = dataset.CIFAR100Like(s.TrainN*2, s.TestN, s.ImgSize, 88)
	case "svhn":
		ds = dataset.SVHNLike(s.TrainN, s.TestN, s.ImgSize, 99)
	}
	net, err := models.Build("cnn-s", models.Config{
		InC: 3, InH: s.ImgSize, InW: s.ImgSize, Classes: classes,
		WidthScale: s.WidthScale, BatchNorm: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := trainer.DefaultConfig()
	cfg.Epochs = s.Epochs
	cfg.BatchSize = s.BatchSize
	cfg.LR = s.LR
	cfg.Seed = 1
	cfg.SimulateNoC = f.noc
	switch {
	case f.phase != "":
		ph := arch.Forward
		if f.phase == "backward" {
			ph = arch.Backward
		}
		cfg.Chip = NewChip(s)
		cfg.PhaseInject = &trainer.PhaseInjection{Phase: ph, Density: reg.PhaseDensity}
	case f.policy == "ideal":
	default:
		pol, trackGrads, err := PolicyByName(f.policy, reg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chip = NewChip(s)
		cfg.Policy = pol
		cfg.Pre = &reg.Pre
		if f.endurance {
			em := fault.NewEnduranceModel()
			em.CharacteristicLife = 100
			cfg.Endurance = em
		} else {
			cfg.Post = &reg.Post
		}
		cfg.TrackGradAbs = trackGrads
	}
	res, err := trainer.Train(net, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTrainSpecMatchesHandBuiltConfig: remapd-train runs its flags as a
// cell spec; for every flag that shapes the run, the spec path must
// reproduce the hand-built dataset, model and trainer config exactly.
func TestTrainSpecMatchesHandBuiltConfig(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags trainFlags
	}{
		{"ideal", trainFlags{policy: "ideal", dataset: "cifar10"}},
		{"remap-d", trainFlags{policy: "remap-d", dataset: "cifar10"}},
		{"remap-t-5", trainFlags{policy: "remap-t-5", dataset: "cifar10"}},
		{"phase-backward", trainFlags{policy: "remap-d", phase: "backward", dataset: "cifar10"}},
		{"noc", trainFlags{policy: "remap-d", dataset: "cifar10", noc: true}},
		{"endurance", trainFlags{policy: "remap-d", dataset: "cifar10", endurance: true}},
		{"noc-endurance-an-code", trainFlags{policy: "an-code", dataset: "cifar10", noc: true, endurance: true}},
		{"ideal-endurance", trainFlags{policy: "ideal", dataset: "cifar10", endurance: true}},
		{"paper-regime", trainFlags{policy: "remap-d", dataset: "cifar10", paper: true}},
		{"cifar100", trainFlags{policy: "remap-d", dataset: "cifar100"}},
		{"svhn", trainFlags{policy: "remap-d", dataset: "svhn"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := trainSpec(t, tc.flags).Execute(context.Background(), Runtime{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := handBuiltTrain(t, tc.flags); !reflect.DeepEqual(got, want) {
				t.Fatalf("spec path differs from the hand-built config:\n  spec %+v\n  hand %+v", got, want)
			}
		})
	}
}
