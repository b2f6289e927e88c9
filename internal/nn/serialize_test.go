package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"remapd/internal/tensor"
)

func serNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, OutC: 3, K: 3, Stride: 1, Pad: 1}
	blk := NewResidual("b1",
		[]Layer{NewConv2D("b1.conv", tensor.ConvGeom{InC: 3, InH: 6, InW: 6, OutC: 3, K: 3, Stride: 1, Pad: 1}, rng),
			NewBatchNorm2D("b1.bn", 3)}, nil)
	return NewNetwork(
		NewConv2D("c1", g, rng),
		NewBatchNorm2D("bn1", 3),
		NewReLU("r1"),
		blk,
		NewFlatten("fl"),
		NewLinear("fc", 3*6*6, 4, rng),
	)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := serNet(1)
	// Perturb running stats so they are non-trivial.
	rng := tensor.NewRNG(9)
	x := tensor.New(4, 2, 6, 6)
	rng.FillNormal(x, 1)
	a.Forward(x, true)

	var buf bytes.Buffer
	if err := SaveWeights(&buf, a); err != nil {
		t.Fatal(err)
	}
	b := serNet(2) // different init
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), b); err != nil {
		t.Fatal(err)
	}
	// Every tensor must match exactly, including BN running stats.
	at, bt := namedTensors(a), namedTensors(b)
	if len(at) != len(bt) {
		t.Fatalf("tensor counts differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i].name != bt[i].name {
			t.Fatalf("tensor order differs: %q vs %q", at[i].name, bt[i].name)
		}
		for j := range at[i].t.Data {
			if at[i].t.Data[j] != bt[i].t.Data[j] {
				t.Fatalf("tensor %q differs at %d", at[i].name, j)
			}
		}
	}
	// Behavioural check: identical outputs in eval mode.
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("loaded network computes differently")
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	a := serNet(1)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, a); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	other := NewNetwork(NewLinear("fc", 4, 2, rng))
	if err := LoadWeights(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("loading into a different architecture must fail")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	a := serNet(1)
	if err := LoadWeights(bytes.NewReader([]byte("NOPE....")), a); err == nil {
		t.Fatal("bad magic must fail")
	}
	if err := LoadWeights(bytes.NewReader(nil), a); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	a := serNet(1)
	var buf bytes.Buffer
	if err := SaveWeights(&buf, a); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if err := LoadWeights(bytes.NewReader(cut), serNet(1)); err == nil {
		t.Fatal("truncated file must fail")
	}
}

func TestNamedTensorsIncludeBNStats(t *testing.T) {
	a := serNet(1)
	names := map[string]bool{}
	for _, nt := range namedTensors(a) {
		names[nt.name] = true
	}
	for _, want := range []string{"bn1.runmean", "bn1.runvar", "b1.bn.runmean", "c1.w", "fc.b"} {
		if !names[want] {
			t.Fatalf("missing %q in %v", want, names)
		}
	}
}

// steppedSGD returns an optimizer over net whose every parameter has a
// non-zero velocity.
func steppedSGD(net *Network, seed uint64) *SGD {
	opt := NewSGD(net, 0.1, 0.9)
	rng := tensor.NewRNG(seed)
	for _, p := range net.Params() {
		rng.FillNormal(p.Grad, 1)
	}
	opt.Step()
	return opt
}

// TestLoadRejectsWrongShape: a tensor whose volume matches the model's but
// whose shape does not is an error, for weights and for velocities alike.
func TestLoadRejectsWrongShape(t *testing.T) {
	cases := []struct {
		name  string
		shape []int
		save  func(*bytes.Buffer, []int) error
		load  func(*bytes.Buffer) error
	}{
		{"weights c1.w rank 1", []int{54},
			func(buf *bytes.Buffer, shape []int) error {
				net := serNet(1)
				net.LayerWeight("c1").Shape = shape
				return SaveWeights(buf, net)
			},
			func(buf *bytes.Buffer) error { return LoadWeights(buf, serNet(2)) }},
		{"velocity c1.w [1 54]", []int{1, 54},
			func(buf *bytes.Buffer, shape []int) error {
				opt := steppedSGD(serNet(1), 3)
				opt.velocity["c1.w"].Shape = shape
				return SaveOptimizer(buf, opt)
			},
			func(buf *bytes.Buffer) error { return LoadOptimizer(buf, NewSGD(serNet(2), 0.1, 0.9)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.save(&buf, c.shape); err != nil {
				t.Fatal(err)
			}
			err := c.load(&buf)
			if err == nil || !strings.Contains(err.Error(), "shape") {
				t.Fatalf("loading c1.w as %v: err = %v, want a shape mismatch", c.shape, err)
			}
		})
	}
}

// TestLoadOptimizerRejectsExcessCount: the velocity count comes from the
// file, so a count above the parameter count must fail before it sizes
// anything.
func TestLoadOptimizerRejectsExcessCount(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveOptimizer(&buf, NewSGD(serNet(1), 0.1, 0.9)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[len(data)-4:], math.MaxUint32)
	err := LoadOptimizer(bytes.NewReader(data), NewSGD(serNet(1), 0.1, 0.9))
	if err == nil || !strings.Contains(err.Error(), "velocities for") {
		t.Fatalf("err = %v, want a velocity-count error", err)
	}
}

// FuzzLoadWeights: weight files are read from disk. No input may panic,
// and an accepted input re-encodes to a decode→encode fixed point.
func FuzzLoadWeights(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveWeights(&buf, serNet(1)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		net := serNet(1)
		if err := LoadWeights(bytes.NewReader(data), net); err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := SaveWeights(&once, net); err != nil {
			t.Fatal(err)
		}
		again := serNet(2)
		if err := LoadWeights(bytes.NewReader(once.Bytes()), again); err != nil {
			t.Fatalf("re-encoded weights rejected: %v", err)
		}
		if err := SaveWeights(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("weights are not a decode→encode fixed point")
		}
	})
}

// FuzzLoadOptimizer: optimizer state is read from checkpoints. No input
// may panic, and an accepted input re-encodes to a decode→encode fixed
// point.
func FuzzLoadOptimizer(f *testing.F) {
	for _, opt := range []*SGD{NewSGD(serNet(1), 0.1, 0.9), steppedSGD(serNet(1), 4)} {
		var buf bytes.Buffer
		if err := SaveOptimizer(&buf, opt); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opt := NewSGD(serNet(1), 0.1, 0.9)
		if err := LoadOptimizer(bytes.NewReader(data), opt); err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := SaveOptimizer(&once, opt); err != nil {
			t.Fatal(err)
		}
		again := NewSGD(serNet(2), 0.1, 0.9)
		if err := LoadOptimizer(bytes.NewReader(once.Bytes()), again); err != nil {
			t.Fatalf("re-encoded optimizer state rejected: %v", err)
		}
		if err := SaveOptimizer(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("optimizer state is not a decode→encode fixed point")
		}
	})
}
