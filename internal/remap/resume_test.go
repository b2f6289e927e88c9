package remap_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/checkpoint"
	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/reram"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// The protected sets of Remap-T and Remap-WS are chip state: the policies
// install them with Chip.SetRelocated, and a checkpoint carries them in
// its chip section. These tests pin that resume path from the policies'
// side.

// protectedState builds a mapped chip whose relocation coverage the
// policy installed: Deploy relocates by weight magnitude and, for
// Remap-T, Maintain re-ranks by a seeded random gradient profile over
// every layer.
func protectedState(t *testing.T, seed uint64, pol remap.Policy) *trainer.TrainState {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork(
		nn.NewLinear("fc1", 24, 16, rng),
		nn.NewReLU("r"),
		nn.NewLinear("fc2", 16, 8, rng),
	)
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = 32
	chip := arch.NewChip(p, arch.Geometry{TilesX: 4, TilesY: 4, IMAsPerTile: 1, XbarsPerIMA: 1})
	if err := chip.MapNetwork(net); err != nil {
		t.Fatal(err)
	}
	net.SetFabric(chip)
	ctx := &remap.Context{Chip: chip, RNG: rng, GradAbs: map[string]*tensor.Tensor{}}
	pol.Deploy(ctx)
	for _, layer := range chip.Layers() {
		g := tensor.New(chip.Weight(layer).Shape...)
		for i := range g.Data {
			g.Data[i] = rng.Float32()
		}
		ctx.GradAbs[layer] = g
	}
	pol.Maintain(ctx)
	return &trainer.TrainState{
		Net: net, Opt: nn.NewSGD(net, 0.1, 0.9),
		TrainRNG: tensor.NewRNG(1), FaultRNG: tensor.NewRNG(2),
		Chip: chip, Policy: pol, Result: &trainer.Result{},
	}
}

func TestProtectedSetRoundTrip(t *testing.T) {
	for name, mk := range map[string]func() remap.Policy{
		"remap-t":  func() remap.Policy { return remap.NewRemapT(0.05) },
		"remap-ws": func() remap.Policy { return remap.NewRemapWS() },
	} {
		t.Run(name, func(t *testing.T) {
			src := protectedState(t, 3, mk())
			want := src.Chip.Relocated()
			if len(want) < 2 {
				t.Fatalf("precondition: %s relocated %d layers, want both", name, len(want))
			}
			data, err := checkpoint.EncodeState(src, "fp", 0)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			// The destination's own protected set differs; the restore
			// must replace it rather than merge into it.
			dst := protectedState(t, 4, mk())
			if reflect.DeepEqual(dst.Chip.Relocated(), want) {
				t.Fatal("precondition: destination already holds the saved set")
			}
			if err := snap.Apply(dst); err != nil {
				t.Fatal(err)
			}
			if got := dst.Chip.Relocated(); !reflect.DeepEqual(want, got) {
				t.Fatalf("round trip mismatch:\nwant %v\ngot  %v", want, got)
			}
		})
	}
}

func TestProtectedSetEncodingIsDeterministic(t *testing.T) {
	st := protectedState(t, 5, remap.NewRemapT(0.05))
	if len(st.Chip.Relocated()) < 2 {
		t.Fatal("precondition: the set must span several layers")
	}
	a, err := checkpoint.EncodeState(st, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := checkpoint.EncodeState(st, "fp", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("encoding depends on map iteration order")
		}
	}
}

// TestRestorePolicyStateRejectsMalformedInput: a protected set is restored
// either from checkpoint bytes or through Chip.SetRelocated. Malformed
// input must fail on both paths and leave the chip's existing set alone.
func TestRestorePolicyStateRejectsMalformedInput(t *testing.T) {
	st := protectedState(t, 6, remap.NewRemapT(0.05))
	valid, err := checkpoint.EncodeState(st, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty-vs-header": valid[:2],
		"truncated-tail":  valid[:len(valid)-5],
		"trailing-bytes":  append(append([]byte(nil), valid...), 0xFF),
	} {
		if _, err := checkpoint.Decode(data); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: Decode gave %v, want ErrCorrupt", name, err)
		}
	}

	keep := st.Chip.Relocated()
	size := st.Chip.Weight("fc1").Len()
	for name, rel := range map[string]map[string][]int{
		"unknown-layer":    {"fc1": {1}, "ghost": {0}},
		"element-too-big":  {"fc1": {1, size}},
		"negative-element": {"fc2": {-1}},
	} {
		if _, err := st.Chip.SetRelocated(rel); err == nil {
			t.Errorf("%s: malformed set accepted", name)
		}
		// A rejected restore must not clobber the existing state.
		if !reflect.DeepEqual(st.Chip.Relocated(), keep) {
			t.Errorf("%s: failed restore mutated the protected set", name)
		}
	}
}
