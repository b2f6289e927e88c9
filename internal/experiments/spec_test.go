package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// allSpecs enumerates every spec the figure/ablation builders can emit, so
// the round-trip, validation and fuzz tests cover the full grid surface.
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

// TestScaleSpecPreservesFingerprint: the Scale a worker rebuilds from a
// spec must produce the same checkpoint fingerprint as the coordinator's
// original, or distributed retries would orphan every snapshot.
func TestScaleSpecPreservesFingerprint(t *testing.T) {
	s := determinismScale()
	s.Workers = 5 // scheduling-only; must not survive the round trip into results
	reg := DefaultRegime()
	key := CellKey{Model: "cnn-s", Policy: "remap-d", Seed: 1}
	rebuilt := Scale{ScaleSpec: s.ScaleSpec}
	if got, want := cellFingerprint(rebuilt, reg, key, 10), cellFingerprint(s, reg, key, 10); got != want {
		t.Fatalf("reconstructed scale fingerprints differently:\n  %s\n  %s", got, want)
	}
}
