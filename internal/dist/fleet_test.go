package dist_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"remapd/internal/checkpoint"
	"remapd/internal/dist"
	"remapd/internal/experiments"
)

// The fleet tests run workers in-process: DialAndServe on a goroutine
// against a loopback listener exercises the full TCP protocol — hello
// validation, slot accounting, heartbeats, requeue, drain — without
// exec'ing anything, which keeps the failure schedules deterministic
// and the transcripts capturable.

// logCapture collects coordinator/worker/progress lines for asserting
// on the run's transcript.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (c *logCapture) logf(format string, args ...interface{}) {
	c.mu.Lock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *logCapture) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

func (c *logCapture) contains(sub string) bool {
	return strings.Contains(c.String(), sub)
}

// newTestFleet listens on loopback and wraps the listener in a Fleet.
func newTestFleet(t *testing.T, opts dist.FleetOptions) *dist.Fleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := dist.NewFleet(ln, opts)
	t.Cleanup(f.Close)
	return f
}

// startWorker runs DialAndServe on a goroutine and returns its exit
// channel. Redial pacing is shortened so severed-connection tests spend
// milliseconds, not the production half-second, between attempts.
func startWorker(ctx context.Context, addr string, opts dist.DialOptions) chan error {
	if opts.RedialBase == 0 {
		opts.RedialBase = 20 * time.Millisecond
	}
	done := make(chan error, 1)
	go func() { done <- dist.DialAndServe(ctx, addr, opts) }()
	return done
}

func waitWorker(t *testing.T, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("worker exited with error: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("worker did not exit")
	}
}

// TestFleetByteIdenticalToInProcess is the fleet's acceptance criterion:
// the Fig. 6 grid scheduled across two dialed-in TCP workers must render
// the exact table the in-process runner renders.
func TestFleetByteIdenticalToInProcess(t *testing.T) {
	reg := experiments.DefaultRegime()
	local := microScale()
	baseline, err := experiments.Fig6(context.Background(), local, reg, microPolicies)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet goroutines outlive the test body by a beat (drop logs after
	// Close), so they must never write through t.Logf.
	var capture logCapture
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := fleet.Addr().String()
	w1 := startWorker(ctx, addr, dist.DialOptions{Logf: capture.logf})
	w2 := startWorker(ctx, addr, dist.DialOptions{Logf: capture.logf})

	remote := microScale()
	remote.Exec = fleet
	rows, err := experiments.Fig6(context.Background(), remote, reg, microPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := experiments.FormatFig6(rows), experiments.FormatFig6(baseline); got != want {
		t.Fatalf("fleet Fig. 6 differs from in-process:\n--- in-process\n%s\n--- fleet\n%s\n%s", want, got, capture.String())
	}

	fleet.Close() // sends shutdown; both workers exit cleanly
	waitWorker(t, w1)
	waitWorker(t, w2)
}

// TestFleetChaosSeverRequeuesAndResumes: a connection severed mid-cell
// by the chaos injector must cost one requeue, with the retried cell
// resuming from the shared checkpoint on the worker's redialed
// connection — and the output must still be byte-identical to a
// fault-free in-process run.
func TestFleetChaosSeverRequeuesAndResumes(t *testing.T) {
	reg := experiments.DefaultRegime()
	scale := func() experiments.Scale {
		s := microScale()
		s.Seeds = []uint64{1}
		s.Epochs = 4 // several log frames per cell, so the cut lands mid-cell
		s.Workers = 1
		return s
	}
	policies := []string{"remap-d"}

	baseline, err := experiments.Fig6(context.Background(), scale(), reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	var capture logCapture
	store, err := checkpoint.NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos := dist.NewChaos(dist.ChaosConfig{Seed: 7, SeverAfter: 3}, capture.logf)
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := startWorker(ctx, fleet.Addr().String(), dist.DialOptions{
		Worker: dist.WorkerOptions{Checkpoints: store},
		Chaos:  chaos,
		Logf:   capture.logf,
	})

	remote := scale()
	remote.Exec = fleet
	remote.Progress = capture.logf
	rows, err := experiments.Fig6(context.Background(), remote, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := experiments.FormatFig6(rows), experiments.FormatFig6(baseline); got != want {
		t.Fatalf("post-sever Fig. 6 differs from in-process:\n--- in-process\n%s\n--- fleet\n%s", want, got)
	}
	for _, must := range []string{"chaos: severing connection", "requeueing", "attempt 2", "resumed from checkpoint"} {
		if !capture.contains(must) {
			t.Fatalf("transcript missing %q:\n%s", must, capture.String())
		}
	}

	fleet.Close()
	waitWorker(t, w)
}

// TestFleetStallsUntilWorkerJoins: with zero workers connected the grid
// must block (logging the stall), then complete normally once a worker
// dials in mid-run.
func TestFleetStallsUntilWorkerJoins(t *testing.T) {
	var capture logCapture
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type out struct {
		res experiments.CellResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := fleet.Execute(context.Background(), 0, specCell("ideal"), nil)
		done <- out{res, err}
	}()

	// Let the Execute hit the empty pool before anyone joins.
	time.Sleep(100 * time.Millisecond)
	w := startWorker(ctx, fleet.Addr().String(), dist.DialOptions{Logf: capture.logf})

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Worker == "" {
			t.Fatal("result does not record the late-joining worker")
		}
	case <-time.After(120 * time.Second):
		t.Fatal("cell never completed after the worker joined")
	}
	if !capture.contains("no workers connected; grid is stalled") {
		t.Fatalf("stall was not logged:\n%s", capture.String())
	}

	fleet.Close()
	waitWorker(t, w)
}

// TestFleetGracefulDrain: SIGINT-equivalent (context cancellation) on one
// worker mid-grid must drain it — goodbye sent, in-flight cell finished,
// nothing new assigned — while the rest of the grid completes on the
// surviving worker, byte-identically.
func TestFleetGracefulDrain(t *testing.T) {
	reg := experiments.DefaultRegime()
	baseline, err := experiments.Fig6(context.Background(), microScale(), reg, microPolicies)
	if err != nil {
		t.Fatal(err)
	}

	var capture logCapture
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	addr := fleet.Addr().String()
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w1 := startWorker(ctx1, addr, dist.DialOptions{Logf: capture.logf})
	w2 := startWorker(ctx2, addr, dist.DialOptions{Logf: capture.logf})

	// Drain worker 1 shortly into the grid; 6 cells remain to be run, so
	// the survivor picks up the slack.
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel1()
	}()

	remote := microScale()
	remote.Exec = fleet
	rows, err := experiments.Fig6(context.Background(), remote, reg, microPolicies)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := experiments.FormatFig6(rows), experiments.FormatFig6(baseline); got != want {
		t.Fatalf("post-drain Fig. 6 differs from in-process:\n--- in-process\n%s\n--- fleet\n%s", want, got)
	}
	waitWorker(t, w1) // drained worker must have exited cleanly on its own
	if !capture.contains("is draining") {
		t.Fatalf("fleet never observed the goodbye:\n%s", capture.String())
	}

	fleet.Close()
	waitWorker(t, w2)
}

// TestFleetChaosGarbledReplyRequeues: a garbled frame is a protocol
// failure — the coordinator must drop that worker and requeue the cell,
// and the worker's redialed connection must finish it.
func TestFleetChaosGarbledReplyRequeues(t *testing.T) {
	var capture logCapture
	// One-shot garble of the 2nd frame (the first cell's first log
	// line); everything after passes clean, so attempt 2 on the redialed
	// connection wins regardless of how many frames an attempt writes.
	chaos := dist.NewChaos(dist.ChaosConfig{Seed: 11, GarbleAfter: 2}, capture.logf)
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := startWorker(ctx, fleet.Addr().String(), dist.DialOptions{Chaos: chaos, Logf: capture.logf})

	res, err := fleet.Execute(context.Background(), 0, specCell("ideal"), nil)
	if err != nil {
		t.Fatalf("grid did not survive the garbled frame: %v\n%s", err, capture.String())
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (the garbled frame must cost a requeue)", res.Attempts)
	}
	for _, must := range []string{"chaos: garbled frame", "garbled reply", "requeueing"} {
		if !capture.contains(must) {
			t.Fatalf("transcript missing %q:\n%s", must, capture.String())
		}
	}

	fleet.Close()
	waitWorker(t, w)
}

// TestFleetCellWithoutSpecFails: closures cannot travel over TCP; the
// refusal needs no worker at all.
func TestFleetCellWithoutSpecFails(t *testing.T) {
	fleet := newTestFleet(t, dist.FleetOptions{})
	cell := experiments.Cell{Key: experiments.CellKey{Model: "closure-only", Seed: 1}}
	_, err := fleet.Execute(context.Background(), 0, cell, nil)
	if err == nil || !strings.Contains(err.Error(), "no serializable spec") {
		t.Fatalf("err = %v, want a no-spec refusal", err)
	}
}

// TestFleetDeterministicCellErrorNotRetried: a cell that fails as a
// property of its own spec must not burn fleet retries.
func TestFleetDeterministicCellErrorNotRetried(t *testing.T) {
	var capture logCapture
	fleet := newTestFleet(t, dist.FleetOptions{Logf: capture.logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := startWorker(ctx, fleet.Addr().String(), dist.DialOptions{Logf: capture.logf})

	res, err := fleet.Execute(context.Background(), 0, specCell("no-such-policy"), nil)
	if err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("err = %v, want the worker's deterministic error", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("deterministic failure took %d attempts, want 1", res.Attempts)
	}

	fleet.Close()
	waitWorker(t, w)
}
