package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"remapd/internal/obs"
)

// This file is the parallel experiment runner. Every figure and ablation of
// the evaluation is a grid of independent (model, policy, seed, regime)
// training runs — "cells" — that the sequential loops used to execute one
// at a time. The runner fans cells across a bounded worker pool instead.
//
// Determinism contract: a cell's result depends only on its coordinates
// (CellKey), never on scheduling. Every random stream a cell consumes is
// seeded from its coordinates — the training/fault RNGs from the cell's
// seed coordinate, exactly as the sequential loops seeded them, and any
// auxiliary stream from CellKey.RNGSeed — and cells share no mutable state
// (datasets are read-only after construction; each cell builds its own
// network, chip, and RNGs). Results are reassembled by submission index,
// so figure rows are bit-identical to the sequential loops regardless of
// worker count or completion order.

// CellKey identifies one independent experiment cell by its grid
// coordinates. Extra distinguishes cells that vary something beyond the
// (model, policy, seed) axes — a regime point, a dataset, a phase.
type CellKey struct {
	Model  string `json:"model"`
	Policy string `json:"policy"`
	Seed   uint64 `json:"seed"`
	Extra  string `json:"extra,omitempty"`
}

// String renders the key for progress lines and error messages.
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s/seed%d", k.Model, k.Policy, k.Seed)
	if k.Extra != "" {
		s += "/" + k.Extra
	}
	return s
}

// RNGSeed derives a deterministic seed from the cell's coordinates
// (FNV-1a over the rendered key). Cells that need randomness beyond the
// training seed draw from this, so streams never alias across cells and
// never depend on scheduling order.
func (k CellKey) RNGSeed() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range []byte(k.String()) {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Logf is the progress-line sink type shared across the runner layers.
type Logf = func(format string, args ...interface{})

// Cell couples a key with the work it identifies. Run must be self
// contained: it may read shared immutable inputs (a *dataset.Dataset) but
// must construct everything it mutates (network, chip, RNGs) itself, and
// should pass ctx into trainer.Config.Ctx so cancellation stops the run at
// the next batch boundary. logf (never nil) multiplexes the cell's
// progress lines into the runner's sink, prefixed with the cell key, so
// interleaved per-epoch output from concurrent cells stays attributable.
type Cell struct {
	Key CellKey
	Run func(ctx context.Context, logf Logf) (interface{}, error)
	// Spec, when non-nil, is the cell's serializable description — the
	// same work as Run, expressed as coordinates instead of a closure, so
	// a dist executor can ship the cell to another process. Cells built by
	// the figure constructors always carry one; Run stays the in-process
	// fast path and the two must compute the identical result.
	Spec *CellSpec
	// Span is the cell's lifecycle span (harness domain), opened by the
	// runner when span recording is on and nil otherwise — every method
	// on a nil span is a no-op, so executors mark lifecycle edges
	// unconditionally. Spans never feed back into results.
	Span *obs.CellSpan
}

// CellResult is one cell's outcome envelope: the figure-specific value
// plus execution provenance (how many attempts the cell took and which
// worker finished it — both empty for in-process execution beyond the
// first attempt).
type CellResult struct {
	Key      CellKey
	Value    interface{}
	Attempts int
	// Worker identifies the executor slot/process that produced the value
	// ("" for in-process execution). Provenance only — never feeds back
	// into results.
	Worker string
}

// CellExecutor abstracts where a cell's work happens. The runner calls
// Execute from its worker goroutines: slot is the stable goroutine index
// (0..Workers-1), which lets a dist executor pin one OS process per slot.
// Execute must honour ctx cancellation and must be safe for concurrent
// calls on distinct slots.
type CellExecutor interface {
	Execute(ctx context.Context, slot int, cell Cell, logf Logf) (CellResult, error)
}

// localExecutor runs cells in-process — the default when Runner.Exec is
// nil and the behaviour all dist executors must reproduce byte-for-byte.
type localExecutor struct{}

func (localExecutor) Execute(ctx context.Context, slot int, cell Cell, logf Logf) (CellResult, error) {
	// In-process cells time their own run segment, so spans mean the same
	// thing on every execution path.
	cell.Span.Dispatch("")
	//lint:allow no-wall-clock harness-domain run-segment timing measures the machine, never the simulation
	start := time.Now()
	v, err := runCell(ctx, cell, logf)
	//lint:allow no-wall-clock harness-domain run-segment timing measures the machine, never the simulation
	cell.Span.RunSegment(time.Since(start).Seconds(), err != nil)
	cell.Span.EndAttempt(err != nil)
	return CellResult{Key: cell.Key, Value: v, Attempts: 1}, err
}

// Runner executes cells on a bounded worker pool.
type Runner struct {
	// Workers bounds concurrent cells; <=0 means GOMAXPROCS.
	Workers int
	// Logf, when non-nil, receives each cell's buffered transcript plus
	// one status line when the cell completes. A cell's lines are held
	// until it finishes (ok or error) and then flushed as one contiguous
	// block under a mutex, so concurrent cells never interleave output.
	Logf func(format string, args ...interface{})
	// Prof, when non-nil, records each cell's wall-clock duration
	// (harness domain; never feeds back into results).
	Prof *obs.Profile
	// Exec, when non-nil, runs cells somewhere other than in-process
	// (e.g. dist.Fleet fans them out to worker processes). Scheduling
	// only: results must be identical to the nil (in-process) executor.
	Exec CellExecutor
	// Spans, when non-nil, records a lifecycle span per cell (harness
	// domain; never feeds back into results).
	Spans *obs.SpanRecorder
	// Status, when non-nil, gets a "grid" section with live progress
	// (total/done/failed cells) for the /status endpoint.
	Status *obs.Status

	// outMu serialises transcript flushes across workers.
	outMu sync.Mutex
}

// Run executes every cell and returns their results indexed by submission
// order. On the first cell error it cancels the remaining cells (in-flight
// cells stop at their next cancellation check) and returns that error; a
// panicking cell is converted into an error instead of killing the
// process. The results of cells that did not complete are zero-valued.
func (r *Runner) Run(ctx context.Context, cells []Cell) ([]CellResult, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	exec := r.Exec
	if exec == nil {
		exec = localExecutor{}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Span recording opens every cell's span at submission time, before
	// any scheduling decision, so queue time means the same thing for the
	// first and the last cell of the grid. cells is the caller's slice;
	// the Span field is written once here, before any worker reads it.
	if r.Spans != nil {
		for i := range cells {
			cells[i].Span = r.Spans.Begin(cells[i].Key.String())
		}
	}

	results := make([]CellResult, len(cells))
	errs := make([]error, len(cells))
	jobs := make(chan int)
	//lint:allow no-wall-clock operator-facing elapsed display only; never reaches cell results
	start := time.Now()
	var done, failed atomic.Int64
	r.Status.Register("grid", func() interface{} {
		return obs.GridStatus{
			Total:  len(cells),
			Done:   int(done.Load()),
			Failed: int(failed.Load()),
			//lint:allow no-wall-clock operator-facing elapsed display only; never reaches cell results
			ElapsedSeconds: time.Since(start).Seconds(),
		}
	})
	if r.Spans != nil {
		r.Status.Register("spans", func() interface{} { return r.Spans.Aggregate() })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := range jobs {
				logf, transcript := r.cellLogf(cells[i].Key)
				var stopCell func()
				if r.Prof != nil {
					stopCell = r.Prof.StartCell(cells[i].Key.String())
				}
				cells[i].Span.Schedule()
				res, err := exec.Execute(runCtx, slot, cells[i], logf)
				if stopCell != nil {
					stopCell()
				}
				switch {
				case err == nil:
					cells[i].Span.Finish("ok")
				case errors.Is(err, context.Canceled):
					cells[i].Span.Finish("cancelled")
				default:
					cells[i].Span.Finish("failed")
				}
				res.Key = cells[i].Key
				results[i], errs[i] = res, err
				if err != nil {
					failed.Add(1)
					cancel() // first failure stops the grid
				}
				n := done.Add(1)
				if r.Logf != nil {
					status := "ok"
					if err != nil {
						status = err.Error()
					}
					if res.Worker != "" {
						status += fmt.Sprintf(" [%s, attempt %d]", res.Worker, res.Attempts)
					}
					// Flush the cell's transcript and status as one block;
					// an erroring cell's lines flush too — they are the
					// context the error message needs.
					r.outMu.Lock()
					for _, line := range *transcript {
						r.Logf("%s", line)
					}
					r.Logf("cell %d/%d %s: %s (elapsed %s)",
						n, len(cells), cells[i].Key, status,
						//lint:allow no-wall-clock operator-facing elapsed display only; never reaches cell results
						time.Since(start).Round(time.Millisecond))
					r.outMu.Unlock()
				}
			}
		}(w)
	}

feed:
	for i := range cells {
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Report the lowest-indexed genuine failure so the error is as
	// deterministic as the results; cancellation fallout (cells that
	// returned context.Canceled because another cell failed first) only
	// surfaces when nothing better exists.
	var firstErr error
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			firstErr = e
			break
		}
	}
	if firstErr == nil {
		if err := ctx.Err(); err != nil {
			firstErr = err // the caller's context (e.g. SIGINT) was cancelled
		} else {
			for _, e := range errs {
				if e != nil {
					firstErr = e
					break
				}
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// cellLogf returns the per-cell progress sink and the transcript buffer
// it fills: every line a cell emits (per-epoch training progress,
// checkpoint-resume notices) is rendered immediately — prefixed with its
// key — but held in the buffer until the cell completes, when the worker
// flushes it as one contiguous block. Only the cell's own goroutine
// touches the buffer, so no lock is needed until the flush. With no sink
// configured the cells log into a no-op.
func (r *Runner) cellLogf(key CellKey) (Logf, *[]string) {
	transcript := &[]string{}
	if r.Logf == nil {
		return func(string, ...interface{}) {}, transcript
	}
	prefix := "[" + key.String() + "] "
	return func(format string, args ...interface{}) {
		*transcript = append(*transcript, fmt.Sprintf(prefix+format, args...))
	}, transcript
}

// runCell executes one cell with panic recovery.
func runCell(ctx context.Context, c Cell, logf Logf) (res interface{}, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %s panicked: %v\n%s", c.Key, p, debug.Stack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err = c.Run(ctx, logf)
	if err != nil && !errors.Is(err, context.Canceled) {
		err = fmt.Errorf("cell %s: %w", c.Key, err)
	}
	return res, err
}

// newRunner builds the runner a figure function uses, honouring the
// scale's worker bound, progress sink, harness profile, executor, and
// telemetry surfaces.
func newRunner(s Scale) *Runner {
	return &Runner{Workers: s.Workers, Logf: s.Progress, Prof: s.Prof, Exec: s.Exec, Spans: s.Spans, Status: s.Status}
}
