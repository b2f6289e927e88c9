package checkpoint

import (
	"bytes"
	"fmt"

	"remapd/internal/det"
	"remapd/internal/nn"
	"remapd/internal/reram"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// Section names inside the container. meta/net/opt/rng/result are always
// present; chip and endurance appear only when the run uses them.
const (
	secMeta      = "meta"
	secNet       = "net"
	secOpt       = "opt"
	secRNG       = "rng"
	secChip      = "chip"
	secEndurance = "endurance"
	secResult    = "result"
)

// Snapshot is a fully parsed checkpoint: every section decoded into plain
// values, nothing applied. Decode builds it in one pass; Apply installs it
// into a TrainState only after the whole file has validated, so a corrupt
// or stale checkpoint can never leave a half-restored run.
type Snapshot struct {
	// Fingerprint identifies the producing cell configuration; a mismatch
	// means the snapshot belongs to a different experiment and is skipped.
	Fingerprint string
	// Epoch is the number of completed epochs the snapshot captures.
	Epoch int
	// PolicyName guards against resuming under a different policy.
	PolicyName string

	netBlob   []byte
	optBlob   []byte
	trainRNG  tensor.RNGState
	faultRNG  tensor.RNGState
	chip      *chipSnap
	endurance []enduranceEntry // nil ⇔ section absent
	hasEnd    bool
	result    resultSnap
}

type chipSnap struct {
	steps       uint64
	mapping     []int
	xbars       []xbarSnap
	correctable [][]int          // arch.Chip.Correctable
	relocated   map[string][]int // arch.Chip.Relocated
}

type xbarSnap struct {
	writes uint64
	faults []faultSnap
}

type faultSnap struct {
	idx        int
	state      reram.CellState
	g          float64
	inPositive bool
}

type enduranceEntry struct {
	id     int
	writes uint64
}

// resultSnap mirrors the serialized trainer.Result fields.
type resultSnap struct {
	policy           string
	epochs           int
	epochTestAcc     []float64
	trainLoss        []float64
	finalTestAcc     float64
	bestTestAcc      float64
	senders          int
	swaps            int
	unmatched        int
	bistCycles       int64
	nocCycles        int64
	faultsInjected   int
	finalMeanDensity float64
}

// EncodeState serializes the live training state after epochsDone epochs
// into a self-validating checkpoint container.
func EncodeState(st *trainer.TrainState, fingerprint string, epochsDone int) ([]byte, error) {
	var sections []section

	// meta
	mw := &writer{}
	mw.str(fingerprint)
	mw.u32(uint32(epochsDone))
	mw.str(st.Policy.Name())
	sections = append(sections, section{secMeta, mw.bytes()})

	// net
	var netBuf bytes.Buffer
	if err := nn.SaveWeights(&netBuf, st.Net); err != nil {
		return nil, fmt.Errorf("checkpoint: encode network: %w", err)
	}
	sections = append(sections, section{secNet, netBuf.Bytes()})

	// opt
	var optBuf bytes.Buffer
	if err := nn.SaveOptimizer(&optBuf, st.Opt); err != nil {
		return nil, fmt.Errorf("checkpoint: encode optimizer: %w", err)
	}
	sections = append(sections, section{secOpt, optBuf.Bytes()})

	// rng: both streams, xoshiro words + Box–Muller cache each.
	rw := &writer{}
	for _, s := range []tensor.RNGState{st.TrainRNG.State(), st.FaultRNG.State()} {
		for _, w := range s.S {
			rw.u64(w)
		}
		rw.boolByte(s.HaveGauss)
		rw.f64(s.Gauss)
	}
	sections = append(sections, section{secRNG, rw.bytes()})

	// chip: step counter, task mapping, per-crossbar writes + sparse
	// faults + ECC-correctable cells, then the relocated weights. With the
	// faults, the coverage is everything any policy decided.
	if st.Chip != nil {
		cw := &writer{}
		cw.u64(st.Chip.Steps())
		mapping := st.Chip.Mapping()
		cw.u32(uint32(len(mapping)))
		for _, xi := range mapping {
			cw.u32(uint32(xi))
		}
		cw.u32(uint32(len(st.Chip.Xbars)))
		correctable := st.Chip.Correctable()
		for xi, x := range st.Chip.Xbars {
			cw.u64(x.Writes())
			cells := x.FaultCells()
			cw.u32(uint32(len(cells)))
			for _, i := range cells {
				cw.u32(uint32(i))
				cw.u8(uint8(x.StateAt(i)))
				cw.f64(x.FaultG(i))
				cw.boolByte(x.FaultInPositive(i))
			}
			cw.ints(correctable[xi])
		}
		relocated := st.Chip.Relocated()
		layers := det.SortedKeys(relocated)
		cw.u32(uint32(len(layers)))
		for _, layer := range layers {
			cw.str(layer)
			cw.ints(relocated[layer])
		}
		sections = append(sections, section{secChip, cw.bytes()})
	}

	// endurance: the applied-write watermarks, sorted for determinism.
	if st.Endurance != nil {
		ew := &writer{}
		applied := st.Endurance.AppliedWrites()
		ids := det.SortedKeys(applied)
		ew.u32(uint32(len(ids)))
		for _, id := range ids {
			ew.u32(uint32(id))
			ew.u64(applied[id])
		}
		sections = append(sections, section{secEndurance, ew.bytes()})
	}

	// result: the partial run summary.
	sw := &writer{}
	r := st.Result
	sw.str(r.Policy)
	sw.u32(uint32(r.Epochs))
	sw.u32(uint32(len(r.EpochTestAcc)))
	for _, v := range r.EpochTestAcc {
		sw.f64(v)
	}
	sw.u32(uint32(len(r.TrainLoss)))
	for _, v := range r.TrainLoss {
		sw.f64(v)
	}
	sw.f64(r.FinalTestAcc)
	sw.f64(r.BestTestAcc)
	sw.i64(int64(r.Senders))
	sw.i64(int64(r.Swaps))
	sw.i64(int64(r.Unmatched))
	sw.i64(r.BISTCyclesTotal)
	sw.i64(r.NoCCyclesTotal)
	sw.i64(int64(r.FaultsInjected))
	sw.f64(r.FinalMeanDensity)
	sections = append(sections, section{secResult, sw.bytes()})

	return packContainer(sections), nil
}

// Decode parses a checkpoint file into a Snapshot without touching any
// live state. All structural failures wrap ErrCorrupt.
func Decode(data []byte) (*Snapshot, error) {
	secs, err := unpackContainer(data)
	if err != nil {
		return nil, err
	}
	need := func(name string) ([]byte, error) {
		p, ok := secs[name]
		if !ok {
			return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
		}
		return p, nil
	}

	snap := &Snapshot{}

	mp, err := need(secMeta)
	if err != nil {
		return nil, err
	}
	mr := newReader(secMeta, mp)
	snap.Fingerprint = mr.str()
	snap.Epoch = int(mr.u32())
	snap.PolicyName = mr.str()
	mr.done()
	if err := mr.err(); err != nil {
		return nil, err
	}

	if snap.netBlob, err = need(secNet); err != nil {
		return nil, err
	}
	if snap.optBlob, err = need(secOpt); err != nil {
		return nil, err
	}

	rp, err := need(secRNG)
	if err != nil {
		return nil, err
	}
	rr := newReader(secRNG, rp)
	for _, dst := range []*tensor.RNGState{&snap.trainRNG, &snap.faultRNG} {
		for i := range dst.S {
			dst.S[i] = rr.u64()
		}
		dst.HaveGauss = rr.boolByte()
		dst.Gauss = rr.f64()
	}
	rr.done()
	if err := rr.err(); err != nil {
		return nil, err
	}

	if cp, ok := secs[secChip]; ok {
		cr := newReader(secChip, cp)
		cs := &chipSnap{steps: cr.u64()}
		nTasks := cr.u32()
		if cr.checkCount("mapping", nTasks, 4) {
			cs.mapping = make([]int, nTasks)
			for i := range cs.mapping {
				cs.mapping[i] = int(cr.u32())
			}
		}
		nXbars := cr.u32()
		if cr.checkCount("crossbars", nXbars, 16) {
			cs.xbars = make([]xbarSnap, nXbars)
			cs.correctable = make([][]int, nXbars)
			for xi := range cs.xbars {
				cs.xbars[xi].writes = cr.u64()
				nFaults := cr.u32()
				if !cr.checkCount("faults", nFaults, 14) {
					break
				}
				cs.xbars[xi].faults = make([]faultSnap, nFaults)
				for fi := range cs.xbars[xi].faults {
					f := &cs.xbars[xi].faults[fi]
					f.idx = int(cr.u32())
					f.state = reram.CellState(cr.u8())
					f.g = cr.f64()
					f.inPositive = cr.boolByte()
				}
				cs.correctable[xi] = cr.ints("correctable cells")
			}
		}
		nLayers := cr.u32()
		if cr.checkCount("relocated layers", nLayers, 8) {
			cs.relocated = make(map[string][]int, nLayers)
			for l := uint32(0); l < nLayers && cr.err() == nil; l++ {
				name := cr.str()
				if _, dup := cs.relocated[name]; dup {
					cr.fail("relocated layers", fmt.Errorf("layer %q listed twice", name))
				}
				cs.relocated[name] = cr.ints("relocated elements")
			}
		}
		cr.done()
		if err := cr.err(); err != nil {
			return nil, err
		}
		snap.chip = cs
	}

	if ep, ok := secs[secEndurance]; ok {
		er := newReader(secEndurance, ep)
		n := er.u32()
		if er.checkCount("entries", n, 12) {
			snap.endurance = make([]enduranceEntry, n)
			for i := range snap.endurance {
				snap.endurance[i].id = int(er.u32())
				snap.endurance[i].writes = er.u64()
			}
		}
		er.done()
		if err := er.err(); err != nil {
			return nil, err
		}
		snap.hasEnd = true
	}

	sp, err := need(secResult)
	if err != nil {
		return nil, err
	}
	sr := newReader(secResult, sp)
	rs := &snap.result
	rs.policy = sr.str()
	rs.epochs = int(sr.u32())
	nAcc := sr.u32()
	if sr.checkCount("epoch accuracies", nAcc, 8) {
		rs.epochTestAcc = make([]float64, nAcc)
		for i := range rs.epochTestAcc {
			rs.epochTestAcc[i] = sr.f64()
		}
	}
	nLoss := sr.u32()
	if sr.checkCount("train losses", nLoss, 8) {
		rs.trainLoss = make([]float64, nLoss)
		for i := range rs.trainLoss {
			rs.trainLoss[i] = sr.f64()
		}
	}
	rs.finalTestAcc = sr.f64()
	rs.bestTestAcc = sr.f64()
	rs.senders = int(sr.i64())
	rs.swaps = int(sr.i64())
	rs.unmatched = int(sr.i64())
	rs.bistCycles = sr.i64()
	rs.nocCycles = sr.i64()
	rs.faultsInjected = int(sr.i64())
	rs.finalMeanDensity = sr.f64()
	sr.done()
	if err := sr.err(); err != nil {
		return nil, err
	}

	return snap, nil
}

// Apply installs the snapshot into the live training state. It validates
// the snapshot against the run's actual shape (chip geometry, policy,
// epoch bookkeeping) before mutating anything; an error here means the
// checkpoint decoded cleanly but belongs to an incompatible run — a hard
// configuration error, not corruption.
func (snap *Snapshot) Apply(st *trainer.TrainState) error {
	// Phase 1: validate everything that can be checked without mutation.
	if (snap.chip != nil) != (st.Chip != nil) {
		return fmt.Errorf("checkpoint: chip section present=%v but run has chip=%v", snap.chip != nil, st.Chip != nil)
	}
	if snap.hasEnd != (st.Endurance != nil) {
		return fmt.Errorf("checkpoint: endurance section present=%v but run has endurance=%v", snap.hasEnd, st.Endurance != nil)
	}
	if snap.PolicyName != st.Policy.Name() {
		return fmt.Errorf("checkpoint: saved under policy %q, resuming under %q", snap.PolicyName, st.Policy.Name())
	}
	if len(snap.result.epochTestAcc) != snap.Epoch || len(snap.result.trainLoss) != snap.Epoch {
		return fmt.Errorf("checkpoint: %d completed epochs but %d accuracies / %d losses",
			snap.Epoch, len(snap.result.epochTestAcc), len(snap.result.trainLoss))
	}
	if snap.chip != nil {
		if len(snap.chip.xbars) != len(st.Chip.Xbars) {
			return fmt.Errorf("checkpoint: %d crossbars saved, chip has %d", len(snap.chip.xbars), len(st.Chip.Xbars))
		}
		for xi, xs := range snap.chip.xbars {
			cells := st.Chip.Xbars[xi].Cells()
			for _, f := range xs.faults {
				if f.idx < 0 || f.idx >= cells {
					return fmt.Errorf("checkpoint: crossbar %d fault at cell %d outside %d cells", xi, f.idx, cells)
				}
				if f.state != reram.SA0 && f.state != reram.SA1 {
					return fmt.Errorf("checkpoint: crossbar %d cell %d has invalid state %d", xi, f.idx, f.state)
				}
			}
			for _, cell := range snap.chip.correctable[xi] {
				if cell >= cells {
					return fmt.Errorf("checkpoint: crossbar %d ECC cell %d outside %d cells", xi, cell, cells)
				}
			}
		}
		for _, layer := range det.SortedKeys(snap.chip.relocated) {
			w := st.Chip.Weight(layer)
			if w == nil {
				return fmt.Errorf("checkpoint: relocation names unmapped layer %q", layer)
			}
			for _, e := range snap.chip.relocated[layer] {
				if e >= w.Len() {
					return fmt.Errorf("checkpoint: layer %q relocates element %d of %d", layer, e, w.Len())
				}
			}
		}
	}

	// Phase 2: apply. RestoreMapping and the coverage setters validate
	// before mutating; the blob loads below parse fully before assigning,
	// so the earliest failure still aborts the run before training resumes
	// on partial state.
	if err := nn.LoadWeights(bytes.NewReader(snap.netBlob), st.Net); err != nil {
		return fmt.Errorf("checkpoint: restore network: %w", err)
	}
	if err := nn.LoadOptimizer(bytes.NewReader(snap.optBlob), st.Opt); err != nil {
		return fmt.Errorf("checkpoint: restore optimizer: %w", err)
	}
	st.TrainRNG.Restore(snap.trainRNG)
	st.FaultRNG.Restore(snap.faultRNG)
	if snap.chip != nil {
		if err := st.Chip.RestoreMapping(snap.chip.mapping); err != nil {
			return fmt.Errorf("checkpoint: restore mapping: %w", err)
		}
		st.Chip.RestoreSteps(snap.chip.steps)
		for xi, xs := range snap.chip.xbars {
			x := st.Chip.Xbars[xi]
			x.HealAll()
			for _, f := range xs.faults {
				x.RestoreFault(f.idx, f.state, f.g, f.inPositive)
			}
			x.RestoreWrites(xs.writes)
		}
		if err := st.Chip.SetCorrectable(snap.chip.correctable); err != nil {
			return fmt.Errorf("checkpoint: restore ECC coverage: %w", err)
		}
		if _, err := st.Chip.SetRelocated(snap.chip.relocated); err != nil {
			return fmt.Errorf("checkpoint: restore relocation: %w", err)
		}
	}
	if snap.hasEnd {
		applied := make(map[int]uint64, len(snap.endurance))
		for _, e := range snap.endurance {
			applied[e.id] = e.writes
		}
		st.Endurance.RestoreAppliedWrites(applied)
	}
	r := st.Result
	r.Policy = snap.result.policy
	r.Epochs = snap.result.epochs
	r.EpochTestAcc = snap.result.epochTestAcc
	r.TrainLoss = snap.result.trainLoss
	r.FinalTestAcc = snap.result.finalTestAcc
	r.BestTestAcc = snap.result.bestTestAcc
	r.Senders = snap.result.senders
	r.Swaps = snap.result.swaps
	r.Unmatched = snap.result.unmatched
	r.BISTCyclesTotal = snap.result.bistCycles
	r.NoCCyclesTotal = snap.result.nocCycles
	r.FaultsInjected = snap.result.faultsInjected
	r.FinalMeanDensity = snap.result.finalMeanDensity
	return nil
}
