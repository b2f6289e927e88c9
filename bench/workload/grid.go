package workload

import (
	"context"
	"fmt"
	"strings"

	"remapd/bench/trace"
	"remapd/internal/cli"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// gridScale is the grid-fig6 unit: the quick-scale Fig. 6 grid (vgg11 and
// resnet12 under all eight policies, one seed) trained for 3 epochs
// instead of 5 so that one grid fits the run budget.
func gridScale(o Options) experiments.Scale {
	s := experiments.QuickScale()
	s.Epochs = 3
	s.Seeds = []uint64{o.Seed}
	if o.Short {
		s.TrainN, s.TestN, s.Epochs = 64, 32, 1
	}
	return s
}

func runGrid(ctx context.Context, o Options) (*Outcome, error) {
	reg := experiments.DefaultRegime()
	out := &Outcome{}
	var cellMS []float64
	var cellSpans []obs.CellSpanData
	layers := map[string]float64{}
	s0 := gridScale(o)
	cells := len(s0.Models) * len(experiments.PolicyNames())
	trainSamples := float64(cells * s0.TrainN * s0.Epochs)

	setup := func(*trace.Tracer) (func() error, func(), error) {
		s := gridScale(o)
		opts := cli.Options{Dist: 2}
		_, cleanup, err := opts.Apply(&s, o.Logf)
		if err == nil {
			err = warmWorkers(ctx, s, reg)
		}
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		spans := obs.NewSpanRecorder()
		s.Spans = spans
		work := func() error {
			rows, err := experiments.Fig6(ctx, s, reg, nil)
			if err != nil {
				return err
			}
			got := spans.Spans()
			cellSpans = append(cellSpans, got...)
			// A cell's latency is how long its result took to arrive
			// after the grid was submitted, queueing included; its own
			// execution time is the per-layer grid.run_s.<policy>.
			for _, sp := range got {
				cellMS = append(cellMS, sp.TotalSeconds*1e3)
			}
			addGridSpans(layers, got)
			out.Attempted++
			if !checkGrid(o, rows, got, cells) {
				out.Failed++
			}
			return nil
		}
		return work, cleanup, nil
	}

	m, err := measure(o, setup)
	if err != nil {
		return nil, err
	}
	out.EndToEnd = endToEnd(m, m.unitMedian(func(sec float64) float64 { return trainSamples / sec }), cellMS)
	if o.TraceDir != "" {
		// The grid's cells run in the dist worker processes, out of the
		// wrappers' reach; its per-layer numbers come from the runner's
		// own cell spans, which every run records.
		out.PerLayer = m.perUnit(layers)
		if err := writeJSONL(o, "grid-fig6", cellSpans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmWorkers runs a two-cell micro grid so that both dist worker
// processes are launched and answering before the measured grid starts.
func warmWorkers(ctx context.Context, s experiments.Scale, reg experiments.FaultRegime) error {
	s.Models = []string{"cnn-s"}
	s.TrainN, s.TestN, s.Epochs = s.BatchSize, s.BatchSize, 1
	if _, err := experiments.Fig6(ctx, s, reg, []string{"ideal", "none"}); err != nil {
		return fmt.Errorf("grid: warm dist workers: %w", err)
	}
	return nil
}

// addGridSpans sums the runner's span attribution into the grid metrics:
// queueing, wire and run seconds (overall and per policy) and attempts.
func addGridSpans(layers map[string]float64, spans []obs.CellSpanData) {
	for _, sp := range spans {
		layers["grid.queue_s"] += sp.QueueSeconds
		policy := strings.Split(sp.Cell, "/")[1]
		for _, a := range sp.Attempts {
			layers["grid.wire_s"] += a.WireSeconds
			layers["grid.run_s"] += a.RunSeconds
			layers["grid.run_s."+policy] += a.RunSeconds
			layers["grid.attempts"]++
		}
	}
}

// checkGrid verifies the grid's rows and spans and the digest of the
// rendered Fig. 6 table.
func checkGrid(o Options, rows []experiments.Fig6Row, spans []obs.CellSpanData, cells int) bool {
	ok := len(rows) == cells && len(spans) == cells
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 || (r.Policy == "ideal" && r.DropVsIdeal != 0) {
			ok = false
		}
	}
	for _, sp := range spans {
		if sp.Outcome != "ok" {
			ok = false
		}
	}
	if !ok {
		o.Logf("grid-fig6: %d rows and %d spans (want %d each) or a row/span fails its invariants", len(rows), len(spans), cells)
	}
	d := newDigester()
	d.add("%s", experiments.FormatFig6(rows))
	return d.check(o, "grid-fig6") && ok
}
