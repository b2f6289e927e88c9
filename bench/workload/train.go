package workload

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"remapd/bench"
	"remapd/bench/trace"
	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/remap"
	"remapd/internal/trainer"
)

// The train-vgg11 unit: one Remap-D training run of vgg11 on the
// quick-scale chip under the default regime's pre- and post-deployment
// faults.
const (
	trainModel  = "vgg11"
	trainPolicy = "remap-d"
	spanTrain   = "trainer.train"
)

func trainSize(short bool) (trainN, testN, epochs int) {
	if short {
		return 128, 64, 2
	}
	return 1024, 256, 6
}

// stepClock is the trainer's cancellation context with a stopwatch
// attached. trainer.Train polls Done once when an epoch starts and once
// before every batch, so within an epoch the gap between two consecutive
// batch polls is one training step: forward, loss, backward and the
// optimizer step with its weight write-back.
type stepClock struct {
	context.Context
	polls []time.Time
}

func (c *stepClock) Done() <-chan struct{} {
	c.polls = append(c.polls, time.Now())
	return c.Context.Done()
}

// stepSeconds returns the step durations the polls bracket.
func (c *stepClock) stepSeconds(epochs, batches int) ([]float64, error) {
	if len(c.polls) != epochs*(1+batches) {
		return nil, fmt.Errorf("train: %d context polls for %d epochs of %d batches; the step clock no longer matches trainer.Train", len(c.polls), epochs, batches)
	}
	var out []float64
	for e := 0; e < epochs; e++ {
		first := e*(1+batches) + 1
		for i := first + 1; i < first+batches; i++ {
			out = append(out, c.polls[i].Sub(c.polls[i-1]).Seconds())
		}
	}
	return out, nil
}

func runTrain(ctx context.Context, o Options) (*Outcome, error) {
	trainN, testN, epochs := trainSize(o.Short)
	s := experiments.QuickScale()
	reg := experiments.DefaultRegime()
	out := &Outcome{}
	var stepsMS, epochS []float64
	layers := map[string]float64{}

	setup := func(tr *trace.Tracer) (func() error, func(), error) {
		ds := dataset.CIFAR10Like(trainN, testN, s.ImgSize, o.Seed)
		net, err := experiments.BuildModel(trainModel, s, o.Seed, ds.Classes)
		if err != nil {
			return nil, nil, err
		}
		var pol remap.Policy
		if pol, _, err = experiments.PolicyByName(trainPolicy, reg); err != nil {
			return nil, nil, err
		}
		if tr != nil {
			trace.WrapNetwork(net, tr)
			pol = trace.WrapPolicy(pol, tr)
		}
		pre, post := reg.Pre, reg.Post
		cfg := trainer.DefaultConfig()
		cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Seed = epochs, s.BatchSize, s.LR, o.Seed
		cfg.Chip, cfg.Policy, cfg.Pre, cfg.Post = experiments.NewChip(s), pol, &pre, &post
		// Replay every remap round's handshake on the flit-level NoC, so
		// the unit pays for (and reports) the paper's remap traffic.
		cfg.SimulateNoC = true
		clock := &stepClock{Context: ctx}
		cfg.Ctx = clock
		var stamps []time.Time
		cfg.Logf = func(string, ...interface{}) { stamps = append(stamps, time.Now()) }

		work := func() error {
			if tr != nil {
				tr.Begin(spanTrain)
			}
			start := time.Now()
			res, err := trainer.Train(net, ds, cfg)
			if tr != nil {
				tr.End()
			}
			if err != nil {
				return err
			}
			steps, err := clock.stepSeconds(epochs, trainN/cfg.BatchSize)
			if err != nil {
				return err
			}
			stepsMS = append(stepsMS, ms(steps)...)
			prev := start
			for _, t := range stamps {
				epochS = append(epochS, t.Sub(prev).Seconds())
				prev = t
			}
			if tr != nil {
				layers["trainer.self_s"] += tr.Agg(spanTrain).Self
			}
			out.Attempted++
			if !checkTrain(o, res, epochs) {
				out.Failed++
			}
			return nil
		}
		return work, func() {}, nil
	}

	m, err := measure(o, setup)
	if err != nil {
		return nil, err
	}
	samples := float64(trainN * epochs)
	out.EndToEnd = endToEnd(m, m.unitMedian(func(sec float64) float64 { return samples / sec }), stepsMS)
	if o.TraceDir != "" {
		m.addLayerMetrics(layers)
		out.PerLayer = m.perUnit(layers)
		// An epoch's time is a median, not a per-unit sum.
		out.PerLayer["trainer.epoch_s"] = bench.Quantile(epochS, 0.5)
		if err := m.writeSpans(o, "train-vgg11"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkTrain verifies a training result's invariants and its digest:
// per-epoch loss and accuracy, the policy's totals, injected faults and
// the final fault density.
func checkTrain(o Options, res *trainer.Result, epochs int) bool {
	ok := len(res.TrainLoss) == epochs && len(res.EpochTestAcc) == epochs &&
		res.FaultsInjected > 0 && res.FinalMeanDensity >= 0 && res.FinalMeanDensity <= 1
	d := newDigester()
	for i := range res.TrainLoss {
		loss, acc := res.TrainLoss[i], res.EpochTestAcc[i]
		if math.IsNaN(loss) || math.IsInf(loss, 0) || loss <= 0 || acc < 0 || acc > 1 {
			ok = false
		}
		d.add("epoch %d loss %s acc %s", i+1, exact(loss), exact(acc))
	}
	d.add("senders %d swaps %d unmatched %d bist %d noc %d", res.Senders, res.Swaps, res.Unmatched, res.BISTCyclesTotal, res.NoCCyclesTotal)
	d.add("faults %d density %s", res.FaultsInjected, exact(res.FinalMeanDensity))
	if !ok {
		o.Logf("train-vgg11: result fails its invariants: %+v", *res)
	}
	return d.check(o, "train-vgg11") && ok
}

// exact renders a float so that equal strings mean equal bits.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
