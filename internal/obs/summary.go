package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"remapd/internal/det"
)

// This file is the read side of the simulation domain: it loads a metrics
// directory back into typed data and aggregates it into the per-policy
// views cmd/remapd-metrics prints. The aggregation consumes recorded
// events only — reproducing figure-level numbers (e.g. Fig. 6 swap
// counts) from a metrics dir is the audit path that proves the trace is
// complete.

// CellMetrics is one cell's persisted telemetry, loaded back.
type CellMetrics struct {
	// Base is the files' shared name stem inside the metrics dir.
	Base string
	// Cell is the cell key ("model/policy/seedN[/extra]").
	Cell string
	// Model, Policy, Seed, Extra are the parsed key coordinates.
	Model  string
	Policy string
	Seed   uint64
	Extra  string

	Snapshot *MetricsSnapshot
	Events   []Event
}

// parseCellKey splits "model/policy/seedN[/extra]" into coordinates.
func parseCellKey(key string) (model, policy string, seed uint64, extra string) {
	parts := strings.Split(key, "/")
	if len(parts) < 3 {
		return key, "", 0, ""
	}
	model, policy = parts[0], parts[1]
	seed, _ = strconv.ParseUint(strings.TrimPrefix(parts[2], "seed"), 10, 64)
	if len(parts) > 3 {
		extra = strings.Join(parts[3:], "/")
	}
	return model, policy, seed, extra
}

// ReadDir loads every cell's telemetry from a metrics directory, sorted
// by file base so the result order is filesystem-independent. A
// metrics.json without its events.jsonl (or vice versa) is an error —
// half-written telemetry should be loud.
func ReadDir(dir string) ([]*CellMetrics, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: read metrics dir: %w", err)
	}
	var bases []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), metricsSuffix) {
			bases = append(bases, strings.TrimSuffix(e.Name(), metricsSuffix))
		}
	}
	sort.Strings(bases)
	cells := make([]*CellMetrics, 0, len(bases))
	for _, base := range bases {
		cm, err := readCell(dir, base)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cm)
	}
	return cells, nil
}

// readCell loads one cell's metrics.json + events.jsonl pair.
func readCell(dir, base string) (*CellMetrics, error) {
	data, err := os.ReadFile(filepath.Join(dir, base+metricsSuffix))
	if err != nil {
		return nil, fmt.Errorf("obs: read %s: %w", base+metricsSuffix, err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", base+metricsSuffix, err)
	}
	f, err := os.Open(filepath.Join(dir, base+eventsSuffix))
	if err != nil {
		return nil, fmt.Errorf("obs: cell %s has metrics but no events: %w", base, err)
	}
	defer func() { _ = f.Close() }() // read-only handle
	events, err := DecodeEvents(f)
	if err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", base+eventsSuffix, err)
	}
	cell := snap.Cell
	if len(events) > 0 {
		if hdr, ok := events[0].(*CellStartEvent); ok {
			cell = hdr.Cell
			events = events[1:]
		}
	}
	cm := &CellMetrics{Base: base, Cell: cell, Snapshot: snap, Events: events}
	cm.Model, cm.Policy, cm.Seed, cm.Extra = parseCellKey(cell)
	return cm, nil
}

// PolicySummary aggregates every loaded cell of one policy.
type PolicySummary struct {
	Policy    string
	Cells     int
	Epochs    int // epoch-report events summed over cells
	Senders   int
	Swaps     int
	Unmatched int
	Protected int // final protected count summed over cells
	// SwapsPerEpoch is Swaps/Epochs (0 when no reports were recorded).
	SwapsPerEpoch float64
	// MeanFinalAcc averages the cells' final test accuracy.
	MeanFinalAcc float64
	// Hops aggregates the cells' remap hop histograms.
	Hops *Histogram
}

// DriftPoint is the per-epoch BIST fidelity aggregate: how far density
// estimates sat from ground truth across all crossbars measured at that
// epoch.
type DriftPoint struct {
	Epoch        int
	Samples      int
	MeanEstimate float64
	MeanTrue     float64
	MeanAbsErr   float64
}

// Summary is the aggregated view of a metrics directory.
type Summary struct {
	Cells    []*CellMetrics
	Policies []*PolicySummary
	Drift    []DriftPoint
}

// Summarize aggregates loaded cells into per-policy tables and the
// density-drift curve. Iteration is deterministic: cells arrive sorted
// from ReadDir and grouped results are emitted in sorted key order.
func Summarize(cells []*CellMetrics) *Summary {
	sum := &Summary{Cells: cells}
	byPolicy := map[string]*PolicySummary{}
	accSamples := map[string]int{}
	type driftAcc struct {
		samples         int
		sumEst, sumTrue float64
		sumAbsErr       float64
	}
	drift := map[int]*driftAcc{}

	for _, cm := range cells {
		ps := byPolicy[cm.Policy]
		if ps == nil {
			ps = &PolicySummary{Policy: cm.Policy, Hops: NewHistogram(HopBuckets)}
			byPolicy[cm.Policy] = ps
		}
		ps.Cells++
		lastProtected := 0
		for _, ev := range cm.Events {
			switch ev := ev.(type) {
			case *ReportEvent:
				ps.Epochs++
				ps.Senders += ev.Senders
				ps.Swaps += ev.Swaps
				ps.Unmatched += ev.Unmatched
				lastProtected = ev.Protected
			case *SwapEvent:
				ps.Hops.Observe(float64(ev.Hops))
			case *DensityEvent:
				d := drift[ev.Epoch]
				if d == nil {
					d = &driftAcc{}
					drift[ev.Epoch] = d
				}
				d.samples++
				d.sumEst += ev.Estimate
				d.sumTrue += ev.True
				err := ev.Estimate - ev.True
				if err < 0 {
					err = -err
				}
				d.sumAbsErr += err
			}
		}
		ps.Protected += lastProtected
		if acc, ok := cm.Snapshot.Gauges["train.test_acc"]; ok {
			ps.MeanFinalAcc += acc
			accSamples[cm.Policy]++
		}
	}

	for _, name := range det.SortedKeys(byPolicy) {
		ps := byPolicy[name]
		if ps.Epochs > 0 {
			ps.SwapsPerEpoch = float64(ps.Swaps) / float64(ps.Epochs)
		}
		if n := accSamples[name]; n > 0 {
			ps.MeanFinalAcc /= float64(n)
		}
		sum.Policies = append(sum.Policies, ps)
	}
	for _, epoch := range det.SortedKeys(drift) {
		d := drift[epoch]
		sum.Drift = append(sum.Drift, DriftPoint{
			Epoch:        epoch,
			Samples:      d.samples,
			MeanEstimate: d.sumEst / float64(d.samples),
			MeanTrue:     d.sumTrue / float64(d.samples),
			MeanAbsErr:   d.sumAbsErr / float64(d.samples),
		})
	}
	return sum
}

// decodeSnapshot parses a metrics.json payload strictly: unknown fields
// are schema drift, not noise to skip.
func decodeSnapshot(data []byte) (*MetricsSnapshot, error) {
	var s MetricsSnapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]float64{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]*Histogram{}
	}
	return &s, nil
}
