package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"remapd/internal/trainer"
)

// stubExecutor is a fake CellExecutor: it runs fn on each cell's spec in
// place of training, prefixes errors with the cell key as the real
// executors do, and tags results with a fake worker identity.
type stubExecutor struct {
	fn    func(ctx context.Context, sp *CellSpec) (*trainer.Result, error)
	calls atomic.Int64
}

func (s *stubExecutor) Execute(ctx context.Context, slot int, cell Cell, logf Logf) (CellResult, error) {
	s.calls.Add(1)
	res, err := s.fn(ctx, cell.Spec)
	if err != nil && !errors.Is(err, context.Canceled) {
		err = fmt.Errorf("cell %s: %w", cell.Spec.Key, err)
	}
	return CellResult{Key: cell.Spec.Key, Result: res, Attempts: 2, Worker: fmt.Sprintf("stub%d", slot)}, err
}

// keySpecs builds n specs that differ only in their key's seed.
func keySpecs(n int, model string) []*CellSpec {
	specs := make([]*CellSpec, n)
	for i := range specs {
		specs[i] = &CellSpec{Key: CellKey{Model: model, Policy: "mul", Seed: uint64(i)}}
	}
	return specs
}

// arithExecutor returns a stub whose result is a pure function of the
// cell's seed, with a tiny seed-dependent sleep so completion order
// differs from submission order under concurrency.
func arithExecutor(n int) *stubExecutor {
	return &stubExecutor{fn: func(ctx context.Context, sp *CellSpec) (*trainer.Result, error) {
		i := int(sp.Key.Seed)
		time.Sleep(time.Duration((n-i)%4) * time.Millisecond)
		return &trainer.Result{Swaps: i * i}, nil
	}}
}

func TestRunnerResultsInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		r := &Runner{Workers: workers, Exec: arithExecutor(20)}
		out, err := r.Run(context.Background(), keySpecs(20, "arith"))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 20 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v.Result.Swaps != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v.Result.Swaps, i*i)
			}
			if v.Key.Seed != uint64(i) {
				t.Fatalf("workers=%d: result[%d] carries key %s, want seed %d", workers, i, v.Key, i)
			}
		}
	}
}

func TestRunnerProgressCallback(t *testing.T) {
	var lines atomic.Int64
	r := &Runner{Workers: 4, Exec: arithExecutor(10), Logf: func(format string, args ...interface{}) {
		lines.Add(1)
		msg := fmt.Sprintf(format, args...)
		if !strings.Contains(msg, "/10") {
			t.Errorf("progress line %q lacks the cell total", msg)
		}
	}}
	if _, err := r.Run(context.Background(), keySpecs(10, "arith")); err != nil {
		t.Fatal(err)
	}
	if lines.Load() != 10 {
		t.Fatalf("progress lines %d, want 10", lines.Load())
	}
}

func TestRunnerErrorCancelsInFlightCells(t *testing.T) {
	boom := errors.New("boom")
	// Every cell except the failing one blocks until cancelled, so Run can
	// only return if the failure cancels the shared context.
	specs := keySpecs(8, "block")
	specs[3].Key.Model = "fail"
	exec := &stubExecutor{fn: func(ctx context.Context, sp *CellSpec) (*trainer.Result, error) {
		if sp.Key.Model == "fail" {
			return nil, boom
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	done := make(chan struct{})
	var out []CellResult
	var err error
	go func() {
		defer close(done)
		out, err = (&Runner{Workers: 8, Exec: exec}).Run(context.Background(), specs)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("runner did not cancel in-flight cells after a failure")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing cell's error", err)
	}
	if !strings.Contains(err.Error(), "fail") {
		t.Fatalf("err %q does not name the failing cell", err)
	}
	if out != nil {
		t.Fatal("results must be nil on failure")
	}
}

// TestRunnerPanicBecomesError runs real specs in-process: a zero crossbar
// size panics inside training, and CellSpec.Execute must turn that into
// an error naming the cell instead of killing the process.
func TestRunnerPanicBecomesError(t *testing.T) {
	s := determinismScale()
	s.TrainN, s.TestN, s.Epochs = 64, 32, 1
	s.Seeds = []uint64{1}
	s.CrossbarSize = 0
	specs := fig6Specs(s, DefaultRegime(), []string{"none"})
	_, err := (&Runner{Workers: 1}).Run(context.Background(), specs)
	if err == nil {
		t.Fatal("panicking cell must surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), specs[0].Key.String()) {
		t.Fatalf("panic error %q does not report a panic in %s", err, specs[0].Key)
	}
}

func TestRunnerParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := &stubExecutor{fn: func(ctx context.Context, sp *CellSpec) (*trainer.Result, error) {
		if sp.Key.Seed == 0 {
			cancel() // simulate SIGINT arriving mid-run
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	specs := keySpecs(6, "slow")
	_, err := (&Runner{Workers: 2, Exec: exec}).Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if exec.calls.Load() == int64(len(specs)) {
		t.Fatal("cancellation should have prevented some queued cells from starting")
	}
}

func TestRunnerUsesConfiguredExecutor(t *testing.T) {
	const workers = 3
	stub := arithExecutor(9)
	var lines []string
	r := &Runner{Workers: workers, Exec: stub, Logf: func(format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	out, err := r.Run(context.Background(), keySpecs(9, "arith"))
	if err != nil {
		t.Fatal(err)
	}
	if stub.calls.Load() != 9 {
		t.Fatalf("executor ran %d cells, want 9", stub.calls.Load())
	}
	for i, res := range out {
		if res.Result.Swaps != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, res.Result.Swaps, i*i)
		}
		if !strings.HasPrefix(res.Worker, "stub") {
			t.Fatalf("result[%d] worker %q did not come from the stub executor", i, res.Worker)
		}
		if res.Attempts != 2 {
			t.Fatalf("result[%d] attempts %d, want the executor's 2", i, res.Attempts)
		}
		slot := 0
		if _, err := fmt.Sscanf(res.Worker, "stub%d", &slot); err != nil || slot < 0 || slot >= workers {
			t.Fatalf("result[%d] ran on slot %q, want stub0..stub%d", i, res.Worker, workers-1)
		}
	}
	// Progress lines must surface the worker identity and attempt count so
	// distributed runs are debuggable from the transcript alone.
	if len(lines) != 9 {
		t.Fatalf("%d progress lines, want 9", len(lines))
	}
	for _, l := range lines {
		if !strings.Contains(l, "stub") || !strings.Contains(l, "attempt 2") {
			t.Fatalf("progress line %q lacks worker identity / attempts", l)
		}
	}
}

// determinismScale is small enough that the full j1-vs-j4 comparison stays
// in unit-test budget: 3 policies × 2 seeds of the 3-layer cnn-s.
func determinismScale() Scale {
	s := QuickScale()
	s.Name = "determinism"
	s.TrainN, s.TestN = 128, 64
	s.Epochs = 2
	s.Models = []string{"cnn-s"}
	s.Seeds = []uint64{1, 2}
	return s
}

func TestFig6DeterministicAcrossWorkerCounts(t *testing.T) {
	reg := DefaultRegime()
	policies := []string{"ideal", "none", "remap-d"}
	var baseline []Fig6Row
	for _, workers := range []int{1, 4} {
		s := determinismScale()
		s.Workers = workers
		rows, err := Fig6(context.Background(), s, reg, policies)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			baseline = rows
			continue
		}
		if !reflect.DeepEqual(baseline, rows) {
			t.Fatalf("Fig6 rows differ between 1 and %d workers:\n%s\nvs\n%s",
				workers, FormatFig6(baseline), FormatFig6(rows))
		}
		if FormatFig6(baseline) != FormatFig6(rows) {
			t.Fatal("formatted Fig6 tables differ across worker counts")
		}
	}
}

// TestFig6QuickScaleParallelDeterminism is the acceptance-criterion check
// at full QuickScale (2 models × 8 policies × 5 epochs — CPU-minutes), so
// it only runs when explicitly requested.
func TestFig6QuickScaleParallelDeterminism(t *testing.T) {
	if os.Getenv("REMAPD_QUICK_DETERMINISM") == "" {
		t.Skip("set REMAPD_QUICK_DETERMINISM=1 to run the QuickScale -j1 vs -j4 comparison")
	}
	reg := DefaultRegime()
	var tables []string
	var elapsed []time.Duration
	for _, workers := range []int{1, 4} {
		s := QuickScale()
		s.Workers = workers
		start := time.Now()
		rows, err := Fig6(context.Background(), s, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		elapsed = append(elapsed, time.Since(start))
		tables = append(tables, FormatFig6(rows))
	}
	if tables[0] != tables[1] {
		t.Fatalf("QuickScale Fig6 differs between -j1 and -j4:\n%s\nvs\n%s", tables[0], tables[1])
	}
	t.Logf("QuickScale Fig6: -j1 %s, -j4 %s (GOMAXPROCS bounds the speedup)", elapsed[0], elapsed[1])
}
