package serve

import (
	"bytes"
	"testing"

	"remapd/internal/arch"
	"remapd/internal/dataset"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/obs"
	"remapd/internal/remap"
	"remapd/internal/reram"
	"remapd/internal/tensor"
)

// testNet builds a small serving stack over 3×16×16 inputs: enough MVM
// layers to occupy a spread of crossbar tasks, small enough to keep the
// tests fast.
func testNet(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, OutC: 8, K: 3, Stride: 1, Pad: 1}
	return nn.NewNetwork(
		nn.NewConv2D("c1", g, rng),
		nn.NewBatchNorm2D("bn1", 8),
		nn.NewReLU("r1"),
		nn.NewMaxPool2D("p1", 2, 2),
		nn.NewFlatten("fl"),
		nn.NewLinear("fc", 8*8*8, 10, rng),
	)
}

func testChip() *arch.Chip {
	p := reram.DefaultDeviceParams()
	p.CrossbarSize = 32
	return arch.NewChip(p, arch.Geometry{TilesX: 4, TilesY: 4, IMAsPerTile: 2, XbarsPerIMA: 4})
}

// runServe executes one complete wear-under-traffic serving run with a
// fresh world and returns its trace and final stats. Everything is built
// from constants, so two calls must replay identically.
func runServe(t *testing.T) (*obs.Trace, Stats) {
	t.Helper()
	trace := obs.NewTrace("test/remap-d/seed1/serve")
	cfg := Config{
		BatchMax:       8,
		BatchWait:      16,
		BISTEvery:      64,
		Threshold:      0.02,
		WritesPerBatch: 8,
		InC:            3, InH: 16, InW: 16,
		Obs: trace,
	}
	net := testNet(5)
	chip := testChip()
	pre := fault.DefaultPreProfile()
	pre.Inject(chip.Xbars, tensor.NewRNG(11))
	pol := remap.NewRemapD()
	pol.Threshold = cfg.Threshold
	em := fault.NewEnduranceModel()
	em.CharacteristicLife = 600
	rep, err := NewReplica(ReplicaConfig{
		Net: net, Chip: chip, Policy: pol, Endurance: em, FaultSeed: 21,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.CIFAR10Like(1, 128, 16, 77)
	Drive(srv, NewTraffic(ds, 9, 3), 512)
	return trace, srv.Stats()
}

// TestServeDeterministicReplay pins the tentpole guarantee: same
// checkpoint (here: same weights), same traffic seed, same wear model ⇒
// byte-identical metrics JSON and an identical maintenance event
// sequence across two independent runs.
func TestServeDeterministicReplay(t *testing.T) {
	t1, s1 := runServe(t)
	t2, s2 := runServe(t)

	// The run being replayed must actually exercise the online machinery,
	// or the byte-identity below proves nothing interesting.
	if s1.BISTScans == 0 || s1.MaintainRounds == 0 || s1.OnlineSwaps == 0 {
		t.Fatalf("run too quiet to pin determinism: %+v", s1)
	}
	if s1 != s2 {
		t.Fatalf("stats diverge between identical runs:\n%+v\n%+v", s1, s2)
	}

	m1, err := t1.Registry().Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := t2.Registry().Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics JSON diverges between identical runs:\n%s\nvs\n%s", m1, m2)
	}

	var e1, e2 bytes.Buffer
	if err := obs.EncodeEvents(&e1, t1.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.EncodeEvents(&e2, t2.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("event trace diverges between identical runs")
	}
	if s1.OnlineSwaps > 0 && !bytes.Contains(e1.Bytes(), []byte(`"swap"`)) {
		t.Fatal("online swaps counted but no swap events in the trace")
	}
}

// probe pushes the same b images through the server as one full batch and
// returns the predicted classes. arrival is advanced monotonically by the
// caller.
func probe(srv *Server, ds *dataset.Dataset, arrival *uint64, n int) []int {
	imgLen := ds.C * ds.H * ds.W
	reqs := make([]*Request, n)
	for i := range reqs {
		*arrival++
		reqs[i] = &Request{
			Image:   ds.TestX.Data[i*imgLen : (i+1)*imgLen],
			Label:   ds.TestY[i],
			Arrival: *arrival,
		}
		srv.Submit(reqs[i])
	}
	classes := make([]int, n)
	for i, r := range reqs {
		classes[i] = r.Class
	}
	return classes
}

// TestBISTFailureTriggersMaintainAndRecovers injects a heavy fault burst
// into the serving (forward-task) crossbars mid-traffic and checks the
// whole online loop: the next scheduled BIST scan fails, Maintain runs
// under TriggerServing, the forward tasks land on clean crossbars, and
// the service's predictions return to their pre-fault baseline.
func TestBISTFailureTriggersMaintainAndRecovers(t *testing.T) {
	cfg := Config{
		BatchMax:  8,
		BatchWait: 1000, // only full batches flush: exact scan scheduling
		BISTEvery: 16,
		Threshold: 0.02,
		InC:       3, InH: 16, InW: 16,
	}
	net := testNet(5)
	chip := testChip()
	pol := remap.NewRemapD()
	pol.Threshold = cfg.Threshold
	rep, err := NewReplica(ReplicaConfig{Net: net, Chip: chip, Policy: pol, FaultSeed: 21}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.CIFAR10Like(1, 64, 16, 77)
	var arrival uint64

	// Baseline on the pristine chip.
	baseline := probe(srv, ds, &arrival, cfg.BatchMax)

	// Fault burst: 30% of every serving crossbar's cells go stuck-at.
	frng := tensor.NewRNG(33)
	hit := 0
	for _, xi := range chip.MappedXbars() {
		if tk := chip.TaskOf(xi); tk != nil && tk.Phase == arch.Forward {
			x := chip.Xbars[xi]
			fault.InjectMixed(x, x.Cells()*3/10, 0.5, 0, 0, frng)
			hit++
		}
	}
	if hit == 0 {
		t.Fatal("no forward-task crossbars to fault")
	}

	// One more batch brings sinceScan to BISTEvery: the scan runs after
	// it executes, sees the burst, and must trigger online maintenance.
	probe(srv, ds, &arrival, cfg.BatchMax)
	st := srv.Stats()
	if st.BISTScans != 1 {
		t.Fatalf("expected exactly 1 BIST scan, got %d", st.BISTScans)
	}
	if st.MaintainRounds != 1 {
		t.Fatalf("BIST failure did not trigger Maintain: %+v", st)
	}
	if st.OnlineSwaps == 0 {
		t.Fatalf("Maintain ran but swapped nothing: %+v", st)
	}

	// Under TriggerServing the forward tasks are the protected phase:
	// every one must now sit on a crossbar below the failure threshold.
	for _, xi := range chip.MappedXbars() {
		if tk := chip.TaskOf(xi); tk != nil && tk.Phase == arch.Forward {
			if d := chip.TrueDensity(xi); d > cfg.Threshold {
				t.Fatalf("forward task still on faulty crossbar %d (density %.3f)", xi, d)
			}
		}
	}

	// Clean arrays again: the service must answer exactly as before the
	// burst.
	recovered := probe(srv, ds, &arrival, cfg.BatchMax)
	for i := range baseline {
		if recovered[i] != baseline[i] {
			t.Fatalf("prediction %d did not recover: baseline class %d, post-maintenance %d",
				i, baseline[i], recovered[i])
		}
	}
	if rep.Rounds() != 1 {
		t.Fatalf("replica rounds = %d, want 1", rep.Rounds())
	}
}

// TestBatchDeadlineFlush pins the scheduler's two close rules: a full
// batch closes at the arrival that fills it, a partial batch closes once
// its oldest request has waited BatchWait ticks.
func TestBatchDeadlineFlush(t *testing.T) {
	cfg := Config{
		BatchMax:  4,
		BatchWait: 10,
		InC:       3, InH: 16, InW: 16,
	}
	net := testNet(5)
	rep, err := NewReplica(ReplicaConfig{Net: net, Chip: testChip(), Policy: remap.NewRemapD(), FaultSeed: 21}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.CIFAR10Like(1, 16, 16, 77)
	imgLen := ds.C * ds.H * ds.W
	mk := func(arrival uint64) *Request {
		return &Request{Image: ds.TestX.Data[:imgLen], Label: -1, Arrival: arrival}
	}

	// Two requests, then a third arriving past the deadline: the first
	// two must flush as a deadline batch, not wait for a full one.
	a, b := mk(1), mk(2)
	srv.Submit(a)
	srv.Submit(b)
	late := mk(30)
	srv.Submit(late)
	if a.Completion == 0 || b.Completion == 0 {
		t.Fatal("deadline-expired batch was not flushed by the late arrival")
	}
	if late.Completion != 0 {
		t.Fatal("fresh request executed before its batch closed")
	}
	st := srv.Stats()
	if st.DeadlineFlushes != 1 || st.Batches != 1 {
		t.Fatalf("want 1 deadline flush / 1 batch, got %+v", st)
	}

	// Filling to BatchMax flushes immediately.
	for i := 0; i < cfg.BatchMax-1; i++ {
		srv.Submit(mk(30 + uint64(i)))
	}
	if late.Completion == 0 {
		t.Fatal("full batch did not flush at BatchMax")
	}
	if got := srv.Stats().Batches; got != 2 {
		t.Fatalf("want 2 batches, got %d", got)
	}
}

// TestBatchFlushAllocs pins the serving bookkeeping of a warm server: a
// full batch through two replicas, with refresh-write wear, allocates
// nothing. Before the allocation-free crossbar walks, every flush
// allocated the MappedXbars slices of the wear and density gauges plus a
// regrown queue (25 allocations at this shape).
func TestBatchFlushAllocs(t *testing.T) {
	cfg := Config{BatchMax: 8, BatchWait: 16, WritesPerBatch: 4, InC: 3, InH: 16, InW: 16}
	var reps []*Replica
	for i := 0; i < 2; i++ {
		rep, err := NewReplica(ReplicaConfig{Net: testNet(5), Chip: testChip(), Policy: remap.NewRemapD(), FaultSeed: 21}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	srv, err := New(cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.CIFAR10Like(1, 16, 16, 77)
	imgLen := ds.C * ds.H * ds.W
	reqs := make([]*Request, cfg.BatchMax)
	for i := range reqs {
		reqs[i] = &Request{Image: ds.TestX.Data[i*imgLen : (i+1)*imgLen], Label: ds.TestY[i]}
	}
	var arrival uint64
	batch := func() {
		for _, r := range reqs {
			arrival++
			r.Arrival = arrival
			srv.Submit(r)
		}
	}
	for i := 0; i < 4; i++ { // warm both replicas' workspaces
		batch()
	}
	before := srv.Stats().Batches
	if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
		t.Fatalf("batch flush allocates %v times, want 0", allocs)
	}
	if got := srv.Stats().Batches - before; got != 21 {
		t.Fatalf("%d batches flushed, want 21 (one per run plus the warm-up call)", got)
	}
}
