package checkpoint

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/dataset"
	"remapd/internal/fault"
	"remapd/internal/models"
	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/reram"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// The resume tests exercise the acceptance bar: interrupt a cell at an
// epoch boundary, resume it in a fresh process-equivalent (all live
// objects rebuilt from scratch), and require the final Result to be
// byte-identical to an uninterrupted run of the same configuration.

func testDataset() *dataset.Dataset { return dataset.CIFAR10Like(256, 128, 16, 77) }

func testModel(seed uint64) *nn.Network {
	net, err := models.Build("cnn-s", models.Config{
		InC: 3, InH: 16, InW: 16, Classes: 10, WidthScale: 0.25, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return net
}

func testChip() *arch.Chip {
	p := reram.DefaultDeviceParams()
	return arch.NewChip(p, arch.Geometry{TilesX: 4, TilesY: 4, IMAsPerTile: 2, XbarsPerIMA: 4})
}

// variant describes one training configuration whose full state must
// round-trip: each exercises a different set of checkpoint sections.
type variant struct {
	name       string
	chip       bool
	policy     func() remap.Policy // nil for no policy (and "ideal" when chip=false)
	pre        bool
	post       bool
	endurance  bool
	trackGrads bool
}

func variants() []variant {
	return []variant{
		// Ideal fabric: net + opt + rng + result only.
		{name: "ideal"},
		// Dynamic remapping under pre+post faults: chip section.
		{name: "remap-d", chip: true, policy: func() remap.Policy { return remap.NewRemapD() }, pre: true, post: true},
		// Remap-T: policy section (protected sets) + GradAbs machinery.
		{name: "remap-t", chip: true, policy: func() remap.Policy { return remap.NewRemapT(0.05) }, pre: true, trackGrads: true},
		// AN-code: chip-derived corrector reattachment, no policy blob.
		{name: "an-code", chip: true, policy: func() remap.Policy { return remap.NewANCode() }, post: true},
		// Physical wear-out: endurance section.
		{name: "endurance", chip: true, policy: func() remap.Policy { return remap.NewRemapD() }, endurance: true},
	}
}

// buildCfg constructs a fresh config for the variant. Every mutable object
// (chip, policy, endurance model) is new, exactly as a restarted process
// would build it.
func buildCfg(v variant, ckpt trainer.CheckpointHook) trainer.Config {
	cfg := trainer.DefaultConfig()
	cfg.Epochs = 4
	cfg.BatchSize = 32
	cfg.LR = 0.05
	cfg.Seed = 5
	cfg.Checkpoint = ckpt
	if v.chip {
		cfg.Chip = testChip()
	}
	if v.policy != nil {
		cfg.Policy = v.policy()
	}
	if v.pre {
		pre := fault.DefaultPreProfile()
		pre.HighDensity = [2]float64{0.04, 0.10}
		cfg.Pre = &pre
	}
	if v.post {
		post := fault.DefaultPostModel()
		post.CrossbarFraction = 0.05
		post.CellFraction = 0.02
		cfg.Post = &post
	}
	if v.endurance {
		em := fault.NewEnduranceModel()
		em.CharacteristicLife = 50
		cfg.Endurance = em
	}
	cfg.TrackGradAbs = v.trackGrads
	return cfg
}

// runVariant trains the variant. cancelAfter > 0 cancels the run's context
// right after that epoch's progress line — the epoch-boundary checkpoint
// of that epoch is still written, then the next epoch's first cancellation
// check stops the run, exactly like a SIGINT between epochs.
func runVariant(t *testing.T, v variant, ckpt trainer.CheckpointHook, cancelAfter int) (*trainer.Result, []string, error) {
	t.Helper()
	cfg := buildCfg(v, ckpt)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	var lines []string
	epochs := 0
	cfg.Logf = func(f string, a ...interface{}) {
		line := fmt.Sprintf(f, a...)
		lines = append(lines, line)
		if strings.HasPrefix(line, "epoch") {
			epochs++
			if cancelAfter > 0 && epochs == cancelAfter {
				cancel()
			}
		}
	}
	res, err := trainer.Train(testModel(5), testDataset(), cfg)
	return res, lines, err
}

func countEpochLines(lines []string) int {
	n := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "epoch") {
			n++
		}
	}
	return n
}

// TestInterruptedResumeIsBitIdentical is the tentpole acceptance test:
// for every configuration class, an interrupted-then-resumed run must
// reproduce the uninterrupted run's Result exactly, and a second resume
// from the completed checkpoint must train zero epochs.
func TestInterruptedResumeIsBitIdentical(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			store, err := NewStore(t.TempDir(), t.Logf)
			if err != nil {
				t.Fatal(err)
			}

			full, _, err := runVariant(t, v, nil, 0)
			if err != nil {
				t.Fatal(err)
			}

			cell := store.Cell("cnn-s/"+v.name+"/seed5", "fp-"+v.name)
			if _, _, err := runVariant(t, v, cell, 2); err == nil {
				t.Fatal("interrupted run must return the cancellation error")
			}
			if _, err := os.Stat(cell.Path()); err != nil {
				t.Fatalf("no checkpoint on disk after interrupt: %v", err)
			}

			resumed, lines, err := runVariant(t, v, cell, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := countEpochLines(lines); got != 2 {
				t.Fatalf("resumed run trained %d epochs, want the remaining 2", got)
			}
			if !reflect.DeepEqual(full, resumed) {
				t.Fatalf("resumed result differs from uninterrupted run:\nfull:    %+v\nresumed: %+v", full, resumed)
			}

			// The final checkpoint records the completed run: a re-run
			// restores the result wholesale and trains nothing.
			again, lines, err := runVariant(t, v, cell, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := countEpochLines(lines); got != 0 {
				t.Fatalf("completed cell re-trained %d epochs, want 0", got)
			}
			if !reflect.DeepEqual(full, again) {
				t.Fatalf("re-run of completed cell altered the result:\nfull:  %+v\nagain: %+v", full, again)
			}
		})
	}
}

// TestSnapshotComponentsRoundTrip checks every serialized component
// individually: the live state after resuming must equal the live state
// the interrupted run left behind.
func TestSnapshotComponentsRoundTrip(t *testing.T) {
	v := variant{name: "remap-t", chip: true,
		policy: func() remap.Policy { return remap.NewRemapT(0.05) },
		pre:    true, post: true, trackGrads: true}
	store, err := NewStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	cell := store.Cell("roundtrip", "fp")

	// Interrupted run A: its live state sits exactly at the epoch-2
	// boundary when Train returns.
	cfgA := buildCfg(v, cell)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	cfgA.Ctx = ctxA
	epochs := 0
	cfgA.Logf = func(f string, a ...interface{}) {
		if strings.HasPrefix(f, "epoch") {
			if epochs++; epochs == 2 {
				cancelA()
			}
		}
	}
	netA := testModel(5)
	if _, err := trainer.Train(netA, testDataset(), cfgA); err == nil {
		t.Fatal("run A should have been cancelled")
	}

	// Run B: fresh everything, resumed from A's checkpoint. Cancel
	// immediately after the resume notice so B's state is untouched
	// beyond the restore (the first line B logs is the resume notice).
	cfgB := buildCfg(v, cell)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	cfgB.Ctx = ctxB
	resumedNotice := false
	cfgB.Logf = func(f string, a ...interface{}) {
		if strings.HasPrefix(f, "resumed") {
			resumedNotice = true
			cancelB()
		}
	}
	netB := testModel(5)
	if _, err := trainer.Train(netB, testDataset(), cfgB); err == nil {
		t.Fatal("run B should have been cancelled after the restore")
	}
	if !resumedNotice {
		t.Fatal("run B did not resume from the checkpoint")
	}

	// Component: network weights + BN stats.
	var wantNet, gotNet bytes.Buffer
	if err := nn.SaveWeights(&wantNet, netA); err != nil {
		t.Fatal(err)
	}
	if err := nn.SaveWeights(&gotNet, netB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantNet.Bytes(), gotNet.Bytes()) {
		t.Error("network weights/BN stats differ after restore")
	}

	// Component: chip mapping, step counter, per-crossbar writes and the
	// full sparse fault state (index, kind, conductance, polarity).
	chipA, chipB := cfgA.Chip, cfgB.Chip
	if !reflect.DeepEqual(chipA.Mapping(), chipB.Mapping()) {
		t.Error("task→crossbar mapping differs after restore")
	}
	if chipA.Steps() != chipB.Steps() {
		t.Errorf("optimizer step counters differ: %d vs %d", chipA.Steps(), chipB.Steps())
	}
	for xi := range chipA.Xbars {
		xa, xb := chipA.Xbars[xi], chipB.Xbars[xi]
		if xa.Writes() != xb.Writes() {
			t.Errorf("crossbar %d write counters differ: %d vs %d", xi, xa.Writes(), xb.Writes())
		}
		if !reflect.DeepEqual(xa.FaultCells(), xb.FaultCells()) {
			t.Errorf("crossbar %d fault cells differ", xi)
			continue
		}
		for _, i := range xa.FaultCells() {
			if xa.StateAt(i) != xb.StateAt(i) || xa.FaultG(i) != xb.FaultG(i) ||
				xa.FaultInPositive(i) != xb.FaultInPositive(i) {
				t.Errorf("crossbar %d cell %d fault state differs", xi, i)
			}
		}
	}

	// Component: policy-internal state (Remap-T protected sets).
	stateA, err := cfgA.Policy.(remap.Resumable).PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	stateB, err := cfgB.Policy.(remap.Resumable).PolicyState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateA, stateB) {
		t.Error("policy state differs after restore")
	}
}

// TestFaultedChipRoundTripCounts saves a chip whose crossbars carry
// overwritten and healed faults and applies the snapshot to a chip with a
// different fault pattern. Every restored crossbar must report the saved
// counts: Apply heals and re-injects through the counted state writers,
// so no count from the overwritten pattern survives the restore.
func TestFaultedChipRoundTripCounts(t *testing.T) {
	newState := func(seed uint64) *trainer.TrainState {
		net := testModel(1)
		chip := testChip()
		if err := chip.MapNetwork(net); err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(seed)
		for _, x := range chip.Xbars[:12] {
			for f := 0; f < 400; f++ {
				x.InjectFault(rng.Intn(16), rng.Intn(16), reram.CellState(rng.Intn(3)), rng)
			}
		}
		return &trainer.TrainState{
			Net: net, Opt: nn.NewSGD(net, 0.1, 0.9, 0),
			TrainRNG: tensor.NewRNG(1), FaultRNG: tensor.NewRNG(2),
			Chip: chip, Policy: remap.None{}, Result: &trainer.Result{},
		}
	}
	src, dst := newState(3), newState(4)
	data, err := EncodeState(src, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Apply(dst); err != nil {
		t.Fatal(err)
	}
	faulty := 0
	for xi, xa := range src.Chip.Xbars {
		xb := dst.Chip.Xbars[xi]
		sa0, sa1 := 0, 0
		for i := 0; i < xb.Cells(); i++ {
			switch xb.StateAt(i) {
			case reram.SA0:
				sa0++
			case reram.SA1:
				sa1++
			}
		}
		if xb.FaultCount() != xa.FaultCount() || xb.CountState(reram.SA0) != xa.CountState(reram.SA0) ||
			xb.CountState(reram.SA1) != xa.CountState(reram.SA1) || len(xb.FaultCells()) != len(xa.FaultCells()) ||
			xb.CountState(reram.SA0) != sa0 || xb.CountState(reram.SA1) != sa1 {
			t.Errorf("crossbar %d: restored counts (faults %d, SA0 %d, SA1 %d, cells %d, dense SA0 %d SA1 %d) != saved (%d, %d, %d, %d)",
				xi, xb.FaultCount(), xb.CountState(reram.SA0), xb.CountState(reram.SA1), len(xb.FaultCells()), sa0, sa1,
				xa.FaultCount(), xa.CountState(reram.SA0), xa.CountState(reram.SA1), len(xa.FaultCells()))
		}
		if xa.FaultCount() > 0 {
			faulty++
		}
	}
	if faulty != 12 {
		t.Fatalf("%d faulted crossbars saved, want 12", faulty)
	}
}

// TestRNGAndOptimizerRoundTrip covers the remaining components at the
// codec level: RNG streams mid-sequence (including the Box–Muller cache)
// and SGD momentum restore into a fresh optimizer.
func TestRNGAndOptimizerRoundTrip(t *testing.T) {
	v := variant{name: "endurance", chip: true,
		policy: func() remap.Policy { return remap.NewRemapD() }, endurance: true}
	store, err := NewStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	cell := store.Cell("rng-opt", "fp")
	if _, _, err := runVariant(t, v, cell, 1); err == nil {
		t.Fatal("expected cancellation")
	}
	data, err := os.ReadFile(cell.Path())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 {
		t.Fatalf("snapshot epoch %d, want 1", snap.Epoch)
	}
	// The serialized RNG states must reproduce themselves through a full
	// encode→decode→apply→encode cycle, bit for bit.
	reenc, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, reenc) {
		t.Fatal("Decode is not deterministic")
	}
	// The endurance section must round-trip the applied-write map: resume
	// and re-save, then compare the two files' endurance sections.
	resumed, _, err := runVariant(t, v, cell, 1) // resume epoch 2, cancel after it
	if err == nil {
		t.Fatal("expected cancellation")
	}
	_ = resumed
	data2, err := os.ReadFile(cell.Path())
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := Decode(data2)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 2 {
		t.Fatalf("second snapshot epoch %d, want 2", snap2.Epoch)
	}
	if !snap2.hasEnd {
		t.Fatal("endurance section missing")
	}
}

// TestCorruptCheckpointFallsBackToFreshStart verifies graceful
// degradation: truncations and bit flips anywhere in the file must be
// detected (never misapplied), warned about, and the cell restarted from
// epoch 0 — producing exactly the fresh-run result.
func TestCorruptCheckpointFallsBackToFreshStart(t *testing.T) {
	v := variant{name: "remap-d", chip: true,
		policy: func() remap.Policy { return remap.NewRemapD() }, pre: true, post: true}

	full, _, err := runVariant(t, v, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	var warnings []string
	store, err := NewStore(t.TempDir(), func(f string, a ...interface{}) {
		warnings = append(warnings, fmt.Sprintf(f, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := store.Cell("corrupt-me", "fp")
	if _, _, err := runVariant(t, v, cell, 2); err == nil {
		t.Fatal("expected cancellation")
	}
	good, err := os.ReadFile(cell.Path())
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string][]byte{
		"truncated-header":  good[:8],
		"truncated-half":    good[:len(good)/2],
		"truncated-trailer": good[:len(good)-3],
		"empty":             {},
	}
	flip := append([]byte(nil), good...)
	flip[len(flip)/3] ^= 0x40
	corruptions["bit-flip"] = flip

	for name, data := range corruptions {
		t.Run(name, func(t *testing.T) {
			if len(data) > 0 {
				if _, err := Decode(data); err == nil {
					t.Fatal("Decode accepted corrupt data")
				} else if !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("error %q does not identify corruption", err)
				}
			}
			if err := os.WriteFile(cell.Path(), data, 0o644); err != nil {
				t.Fatal(err)
			}
			warnings = warnings[:0]
			res, lines, err := runVariant(t, v, cell, 0)
			if err != nil {
				t.Fatalf("corrupt checkpoint must not fail the cell: %v", err)
			}
			if len(warnings) == 0 {
				t.Fatal("corruption fallback must be logged")
			}
			if got := countEpochLines(lines); got != 4 {
				t.Fatalf("fallback run trained %d epochs, want all 4", got)
			}
			if !reflect.DeepEqual(full, res) {
				t.Fatal("fresh restart after corruption differs from a clean fresh run")
			}
		})
	}
}

// TestStaleFingerprintIsSkipped: a checkpoint from a differently-configured
// run of the same cell key must be ignored with a warning, not applied.
func TestStaleFingerprintIsSkipped(t *testing.T) {
	v := variant{name: "ideal"}
	var warnings []string
	store, err := NewStore(t.TempDir(), func(f string, a ...interface{}) {
		warnings = append(warnings, fmt.Sprintf(f, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runVariant(t, v, store.Cell("cell", "fingerprint-old"), 2); err == nil {
		t.Fatal("expected cancellation")
	}
	res, lines, err := runVariant(t, v, store.Cell("cell", "fingerprint-new"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := countEpochLines(lines); got != 4 {
		t.Fatalf("stale checkpoint must restart the cell: trained %d epochs, want 4", got)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "stale") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stale-fingerprint warning in %q", warnings)
	}
	if res == nil || len(res.EpochTestAcc) != 4 {
		t.Fatal("fresh run after stale skip incomplete")
	}
}

// TestPolicyMismatchIsHardError: a snapshot that decodes cleanly but was
// produced under a different policy must abort, not silently restart.
func TestPolicyMismatchIsHardError(t *testing.T) {
	store, err := NewStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	cell := store.Cell("cell", "same-fp")
	vd := variant{name: "remap-d", chip: true,
		policy: func() remap.Policy { return remap.NewRemapD() }, pre: true}
	if _, _, err := runVariant(t, vd, cell, 2); err == nil {
		t.Fatal("expected cancellation")
	}
	vn := variant{name: "none", chip: true, pre: true}
	_, _, err = runVariant(t, vn, cell, 0)
	if err == nil || !strings.Contains(err.Error(), "policy") {
		t.Fatalf("resuming under a different policy must be a hard error, got %v", err)
	}
}

// TestStoreFileNames: distinct keys map to distinct files even when
// sanitization collides, and names stay filesystem-safe.
func TestStoreFileNames(t *testing.T) {
	a := cellFileName("vgg11/remap-d/seed1")
	b := cellFileName("vgg11/remap-d\\seed1")
	if a == b {
		t.Fatal("sanitization collision not disambiguated by hash")
	}
	for _, n := range []string{a, b} {
		if strings.ContainsAny(n, "/\\ :") {
			t.Fatalf("unsafe checkpoint file name %q", n)
		}
		if !strings.HasSuffix(n, ".ckpt") {
			t.Fatalf("missing extension in %q", n)
		}
	}
}

// TestAtomicWriteReplaces: writeAtomic must replace an existing file and
// leave no temp droppings behind.
func TestAtomicWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := writeAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := writeAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("read %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in store dir, want only the checkpoint", len(entries))
	}
}
