package workload

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"remapd/bench/trace"
	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/serve"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// The serving workloads deploy one trained vgg11 on two replica chips with
// remapd-serve's defaults: batches close at 8 requests or a 16-tick wait,
// an online BIST scan runs every 256 requests per chip, and every executed
// batch puts 4 refresh writes on each forward-task crossbar.
const (
	serveModel    = "vgg11"
	servePolicy   = "remap-d"
	serveChips    = 2
	serveJitter   = 3
	serveTestPool = 512
)

// driveRequests is the serve-drive unit's request count.
func driveRequests(short bool) int {
	if short {
		return 512
	}
	return 8192
}

// wearLife scales the Weibull characteristic life so that a unit of the
// given request count wears each chip as far as the serve-smoke run does
// (2048 requests on one chip with a life of 4000 writes).
func wearLife(requests int) float64 {
	return float64(requests) / serveChips * 4000 / 2048
}

// servingStack is the system under test of both serving workloads.
type servingStack struct {
	srv *serve.Server
	ds  *dataset.Dataset
}

// newServingStack trains the served weights (one ideal-fabric epoch),
// passes them through the checkpoint weight format as remapd-serve loads
// them, and deploys them on serveChips faulty, wearing replica chips. With
// a tracer, every replica's layers and policy are wrapped.
func newServingStack(o Options, tr *trace.Tracer, requests int) (*servingStack, error) {
	s := experiments.QuickScale()
	reg := experiments.DefaultRegime()
	trainN := 512
	if o.Short {
		trainN = 64
	}
	ds := dataset.CIFAR10Like(trainN, serveTestPool, s.ImgSize, o.Seed)
	tnet, err := experiments.BuildModel(serveModel, s, o.Seed, ds.Classes)
	if err != nil {
		return nil, err
	}
	cfg := trainer.DefaultConfig()
	cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Seed = 1, s.BatchSize, s.LR, o.Seed
	if _, err := trainer.Train(tnet, ds, cfg); err != nil {
		return nil, fmt.Errorf("serve: train served weights: %w", err)
	}
	var weights bytes.Buffer
	if err := nn.SaveWeights(&weights, tnet); err != nil {
		return nil, err
	}

	scfg := serve.Config{
		BatchMax: 8, BatchWait: 16, BISTEvery: 256,
		Threshold: reg.RemapThreshold, WritesPerBatch: 4,
		InC: ds.C, InH: ds.H, InW: ds.W,
	}
	reps := make([]*serve.Replica, serveChips)
	for i := range reps {
		net, err := experiments.BuildModel(serveModel, s, o.Seed, ds.Classes)
		if err != nil {
			return nil, err
		}
		if err := nn.LoadWeights(bytes.NewReader(weights.Bytes()), net); err != nil {
			return nil, err
		}
		chip := experiments.NewChip(s)
		faultSeed := o.Seed<<16 + uint64(i) + 1
		reg.Pre.Inject(chip.Xbars, tensor.NewRNG(faultSeed))
		var pol remap.Policy
		if pol, _, err = experiments.PolicyByName(servePolicy, reg); err != nil {
			return nil, err
		}
		if tr != nil {
			trace.WrapNetwork(net, tr)
			pol = trace.WrapPolicy(pol, tr)
		}
		em := fault.NewEnduranceModel()
		em.CharacteristicLife = wearLife(requests)
		rc := serve.ReplicaConfig{Net: net, Chip: chip, Policy: pol, Endurance: em, FaultSeed: faultSeed}
		if reps[i], err = serve.NewReplica(rc, scfg); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(scfg, reps)
	if err != nil {
		return nil, err
	}
	return &servingStack{srv: srv, ds: ds}, nil
}

// Span names of the traced drive: every Submit (and the final Flush) is
// classed by what it did, read off the Stats() deltas around it.
const (
	spanSubmit        = "serve.submit"
	spanSubmitScan    = "serve.submit.scan"    // ran a batch and a BIST scan
	spanSubmitBatch   = "serve.submit.batch"   // ran a batch
	spanSubmitEnqueue = "serve.submit.enqueue" // only queued the request
)

func submitClass(before, after serve.Stats) string {
	switch {
	case after.BISTScans > before.BISTScans:
		return spanSubmitScan
	case after.Batches > before.Batches:
		return spanSubmitBatch
	}
	return spanSubmitEnqueue
}

func runDrive(ctx context.Context, o Options) (*Outcome, error) {
	n := driveRequests(o.Short)
	out := &Outcome{}
	var latMS []float64
	layers := map[string]float64{}

	setup := func(tr *trace.Tracer) (func() error, func(), error) {
		st, err := newServingStack(o, tr, n)
		if err != nil {
			return nil, nil, err
		}
		traffic := serve.NewTraffic(st.ds, o.Seed, serveJitter)
		reqs := make([]*serve.Request, n)
		for i := range reqs {
			reqs[i] = traffic.Next()
		}
		sent := make([]time.Time, n)
		work := func() error {
			srv := st.srv
			// begin and end bracket one scheduler call with a span, classed
			// by what the call did, when the run is traced.
			var before serve.Stats
			begin := func() {
				if tr != nil {
					tr.Begin(spanSubmit)
				}
			}
			end := func() {
				if tr != nil {
					after := srv.Stats()
					tr.EndAs(submitClass(before, after))
					before = after
				}
			}
			// pending holds requests submitted but not yet executed; a
			// request's latency runs from its Submit until the Submit that
			// executed its batch returns.
			pending := make([]int, 0, 16)
			settle := func(now time.Time) {
				kept := pending[:0]
				for _, j := range pending {
					if reqs[j].Completion > 0 {
						latMS = append(latMS, now.Sub(sent[j]).Seconds()*1e3)
					} else {
						kept = append(kept, j)
					}
				}
				pending = kept
			}
			for i, r := range reqs {
				if i%1024 == 0 && ctx.Err() != nil {
					return ctx.Err()
				}
				sent[i] = time.Now()
				begin()
				srv.Submit(r)
				end()
				pending = append(pending, i)
				settle(time.Now())
			}
			begin()
			srv.Flush()
			end()
			settle(time.Now())

			stats := srv.Stats()
			addServeStats(layers, serve.Stats{}, stats)
			if tr != nil {
				for name, class := range map[string]string{"serve.batch_s": spanSubmitBatch, "serve.scan_s": spanSubmitScan, "serve.enqueue_s": spanSubmitEnqueue} {
					a := tr.Agg(class)
					layers[name] += a.Total
					layers["serve.self_s"] += a.Self
				}
			}
			out.Attempted += n
			out.Failed += checkDrive(o, reqs, stats, st.ds.Classes)
			return nil
		}
		return work, func() {}, nil
	}

	m, err := measure(o, setup)
	if err != nil {
		return nil, err
	}
	out.EndToEnd = endToEnd(m, m.unitMedian(func(sec float64) float64 { return float64(n) / sec }), latMS)
	if o.TraceDir != "" {
		m.addLayerMetrics(layers)
		out.PerLayer = m.perUnit(layers)
		if err := m.writeSpans(o, "serve-drive"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addServeStats adds the scheduler's counters accrued between two Stats
// snapshots to the per-layer sums.
func addServeStats(layers map[string]float64, before, after serve.Stats) {
	layers["serve.batches"] += float64(after.Batches - before.Batches)
	layers["serve.deadline_flushes"] += float64(after.DeadlineFlushes - before.DeadlineFlushes)
	layers["serve.bist_scans"] += float64(after.BISTScans - before.BISTScans)
	layers["serve.maintain_rounds"] += float64(after.MaintainRounds - before.MaintainRounds)
	layers["serve.online_swaps"] += float64(after.OnlineSwaps - before.OnlineSwaps)
	layers["serve.wear_faults"] += float64(after.WearFaults - before.WearFaults)
	if b := after.Batches - before.Batches; b > 0 {
		layers["serve.batch_size_mean"] += float64(after.Requests-before.Requests) / float64(b)
	}
}

// checkDrive returns how many of the unit's requests failed: each one
// left unexecuted or classified out of range, or all of them when the
// digest of the server's Stats() and the class sequence mismatches.
func checkDrive(o Options, reqs []*serve.Request, stats serve.Stats, classes int) int {
	failed := 0
	seq := make([]byte, len(reqs))
	for i, r := range reqs {
		if r.Completion == 0 || r.Class < 0 || r.Class >= classes {
			failed++
		}
		seq[i] = byte(r.Class)
	}
	if stats.Requests != int64(len(reqs)) {
		o.Logf("serve-drive: server counted %d requests, %d were submitted", stats.Requests, len(reqs))
		failed = len(reqs)
	}
	js, err := json.Marshal(stats)
	if err != nil {
		panic("serve.Stats is not JSON-encodable: " + err.Error())
	}
	d := newDigester()
	d.add("stats %s", js)
	d.add("classes %x", sha256.Sum256(seq))
	if !d.check(o, "serve-drive") {
		failed = len(reqs)
	}
	return failed
}
