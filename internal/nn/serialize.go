package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"remapd/internal/det"
	"remapd/internal/tensor"
)

// Weight serialization: a small self-describing binary format so trained
// models (and their BN running statistics) survive process restarts and
// can be shared between the cmd tools and examples.
//
// Layout (little endian):
//
//	magic "RMPD" | version u32 | paramCount u32 |
//	per param: nameLen u32 | name | rank u32 | dims []u32 | data []f32
//
// Running statistics of BatchNorm layers are not Params; they are appended
// under synthesized names ("<layer>.runmean"/".runvar") so evaluation-mode
// behaviour round-trips exactly.

const weightsMagic = "RMPD"
const weightsVersion = 1

// Optimizer state shares the per-tensor layout under its own magic, so a
// checkpoint can persist SGD momentum alongside the weights:
//
//	magic "RMPO" | version u32 | lr f64 | steps u64 | tensorCount u32 |
//	per tensor: nameLen u32 | name | rank u32 | dims []u32 | data []f32
const optimizerMagic = "RMPO"
const optimizerVersion = 1

// namedTensors enumerates every tensor that must round-trip: trainable
// parameters plus BN running statistics.
func namedTensors(n *Network) []struct {
	name string
	t    *tensor.Tensor
} {
	var out []struct {
		name string
		t    *tensor.Tensor
	}
	for _, p := range n.Params() {
		out = append(out, struct {
			name string
			t    *tensor.Tensor
		}{p.Name, p.W})
	}
	var walk func(layers []Layer)
	walk = func(layers []Layer) {
		for _, l := range layers {
			switch v := l.(type) {
			case *BatchNorm2D:
				out = append(out, struct {
					name string
					t    *tensor.Tensor
				}{v.Name() + ".runmean", v.RunMean})
				out = append(out, struct {
					name string
					t    *tensor.Tensor
				}{v.Name() + ".runvar", v.RunVar})
			case *Residual:
				walk(v.Body)
				walk(v.Short)
			}
		}
	}
	walk(n.Layers)
	return out
}

// writeTensorEntry writes one named tensor in the shared layout.
func writeTensorEntry(w io.Writer, name string, t *tensor.Tensor) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := w.Write([]byte(name)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(t.Rank())); err != nil {
		return err
	}
	for _, d := range t.Shape {
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, t.Data)
}

// readTensorHeader reads one entry's name and shape, leaving r positioned
// at the entry's float32 payload.
func readTensorHeader(r io.Reader) (name string, shape []int, err error) {
	var nameLen uint32
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return "", nil, err
	}
	if nameLen > 4096 {
		return "", nil, fmt.Errorf("nn: implausible name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return "", nil, err
	}
	name = string(nameBuf)
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return "", nil, err
	}
	if rank > 8 {
		return "", nil, fmt.Errorf("nn: implausible rank %d for %q", rank, name)
	}
	shape = make([]int, rank)
	for d := range shape {
		var v uint32
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return "", nil, err
		}
		shape[d] = int(v)
	}
	return name, shape, nil
}

// SaveWeights writes every parameter and BN statistic of net to w.
func SaveWeights(w io.Writer, net *Network) error {
	ts := namedTensors(net)
	if _, err := w.Write([]byte(weightsMagic)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(weightsVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ts))); err != nil {
		return err
	}
	for _, nt := range ts {
		if err := writeTensorEntry(w, nt.name, nt.t); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeights reads a weight file into net. Every serialized tensor must
// match a tensor of the same name and shape in net; missing or mismatched
// entries are errors (the format is for exact architecture round-trips).
func LoadWeights(r io.Reader, net *Network) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != weightsMagic {
		return fmt.Errorf("nn: bad magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != weightsVersion {
		return fmt.Errorf("nn: unsupported weights version %d", version)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}

	byName := map[string]*tensor.Tensor{}
	for _, nt := range namedTensors(net) {
		byName[nt.name] = nt.t
	}
	for i := uint32(0); i < count; i++ {
		name, shape, err := readTensorHeader(r)
		if err != nil {
			return err
		}
		dst, ok := byName[name]
		if !ok {
			return fmt.Errorf("nn: file contains unknown tensor %q", name)
		}
		if !slices.Equal(shape, dst.Shape) {
			return fmt.Errorf("nn: tensor %q shape %v does not match model %v", name, shape, dst.Shape)
		}
		if err := binary.Read(r, binary.LittleEndian, dst.Data); err != nil {
			return err
		}
		for _, v := range dst.Data {
			if math.IsNaN(float64(v)) {
				return fmt.Errorf("nn: tensor %q contains NaN", name)
			}
		}
		delete(byName, name)
	}
	if len(byName) != 0 {
		// Report the lexically first missing tensor so the error message is
		// deterministic.
		return fmt.Errorf("nn: file is missing tensor %q", det.SortedKeys(byName)[0])
	}
	return nil
}

// SaveOptimizer writes opt's mutable state — the decayed learning rate, the
// step counter, and every momentum tensor — so a resumed run continues the
// exact update trajectory. Velocity tensors are written in sorted name
// order for byte-identical output.
func SaveOptimizer(w io.Writer, opt *SGD) error {
	if _, err := w.Write([]byte(optimizerMagic)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(optimizerVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, opt.LR); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(opt.stepsApplied)); err != nil {
		return err
	}
	names := det.SortedKeys(opt.velocity)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeTensorEntry(w, name, opt.velocity[name]); err != nil {
			return err
		}
	}
	return nil
}

// LoadOptimizer restores state saved by SaveOptimizer into opt. Every
// serialized velocity must name a distinct parameter of opt's network with
// the same shape; parameters without a serialized velocity keep the
// lazy-zero initialisation (they had not been stepped when the state was
// saved).
func LoadOptimizer(r io.Reader, opt *SGD) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("nn: reading optimizer magic: %w", err)
	}
	if string(magic) != optimizerMagic {
		return fmt.Errorf("nn: bad optimizer magic %q", magic)
	}
	var version uint32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return err
	}
	if version != optimizerVersion {
		return fmt.Errorf("nn: unsupported optimizer version %d", version)
	}
	var lr float64
	if err := binary.Read(r, binary.LittleEndian, &lr); err != nil {
		return err
	}
	var steps uint64
	if err := binary.Read(r, binary.LittleEndian, &steps); err != nil {
		return err
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	paramByName := map[string]*Param{}
	for _, p := range opt.net.Params() {
		paramByName[p.Name] = p
	}
	if int64(count) > int64(len(paramByName)) {
		return fmt.Errorf("nn: %d velocities for %d parameters", count, len(paramByName))
	}
	velocity := make(map[string]*tensor.Tensor, count)
	for i := uint32(0); i < count; i++ {
		name, shape, err := readTensorHeader(r)
		if err != nil {
			return err
		}
		p, ok := paramByName[name]
		if !ok {
			return fmt.Errorf("nn: optimizer state for unknown parameter %q", name)
		}
		if !slices.Equal(shape, p.W.Shape) {
			return fmt.Errorf("nn: velocity %q shape %v does not match parameter %v", name, shape, p.W.Shape)
		}
		if _, dup := velocity[name]; dup {
			return fmt.Errorf("nn: duplicate velocity %q", name)
		}
		v := tensor.New(shape...)
		if err := binary.Read(r, binary.LittleEndian, v.Data); err != nil {
			return err
		}
		velocity[name] = v
	}
	opt.LR = lr
	opt.stepsApplied = int(steps)
	opt.velocity = velocity
	return nil
}
