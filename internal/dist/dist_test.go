package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"remapd/internal/checkpoint"
	"remapd/internal/dist"
	"remapd/internal/experiments"
)

// The tests exec this test binary itself as the worker process (the same
// pattern the real tools use: one binary, a -worker switch).
// dist.SpawnFleet runs each child as `<binary> -worker -connect <addr>`;
// TestMain dispatches on an environment variable: unset runs the tests,
// "worker" runs the real DialAndServe loop against the -connect address,
// "worker-kill" runs it with a saboteur that SIGKILL-equivalents the
// process as soon as the cell persists its first checkpoint, "garbage"
// speaks a valid hello and then answers every cell with non-protocol
// output, "mute" speaks a valid hello and then answers nothing,
// "exit-early" exits before its hello, and "crash-loop" joins once,
// dies on its first cell, and then exits before its hello forever.
const (
	modeEnv   = "REMAPD_DIST_TEST_MODE"
	ckptEnv   = "REMAPD_DIST_TEST_CKPT"
	markerEnv = "REMAPD_DIST_TEST_MARKER"
)

func TestMain(m *testing.M) {
	switch os.Getenv(modeEnv) {
	case "":
		os.Exit(m.Run())
	case "worker", "worker-kill":
		runTestWorker()
	case "garbage":
		runRawWorker(func(conn net.Conn) {
			_, _ = fmt.Fprintln(conn, "xyzzy: this is not a protocol reply")
		})
	case "mute":
		// The shape of a wedged-but-alive process: only a reply timeout
		// (or the heartbeat deadline) can unmask it.
		runRawWorker(func(net.Conn) {})
	case "exit-early":
		os.Exit(3)
	case "crash-loop":
		marker := os.Getenv(markerEnv)
		if _, err := os.Stat(marker); err == nil {
			os.Exit(3)
		}
		runRawWorker(func(net.Conn) {
			_ = os.WriteFile(marker, []byte("died once\n"), 0o644)
			os.Exit(137)
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown %s=%q\n", modeEnv, os.Getenv(modeEnv))
		os.Exit(2)
	}
}

// connectAddr returns the coordinator address SpawnFleet put in argv.
func connectAddr() string {
	for i, arg := range os.Args[:len(os.Args)-1] {
		if arg == "-connect" {
			return os.Args[i+1]
		}
	}
	fmt.Fprintln(os.Stderr, "test worker: no -connect address in argv")
	os.Exit(2)
	return ""
}

func runTestWorker() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var opts dist.WorkerOptions
	if dir := os.Getenv(ckptEnv); dir != "" {
		store, err := checkpoint.NewStore(dir, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Checkpoints = store
		if os.Getenv(modeEnv) == "worker-kill" {
			marker := os.Getenv(markerEnv)
			if _, err := os.Stat(marker); err != nil {
				// First incarnation: die abruptly (no reply, no cleanup —
				// indistinguishable from SIGKILL to the coordinator) as soon
				// as the in-flight cell has persisted at least one epoch.
				// The marker makes the respawned worker behave, so the
				// retry exercises resume, not an immortal crash loop.
				go func() {
					for {
						if m, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(m) > 0 {
							_ = os.WriteFile(marker, []byte("died once\n"), 0o644)
							os.Exit(137)
						}
						time.Sleep(time.Millisecond)
					}
				}()
			}
		}
	}
	// A bounded redial: a child outliving its test must not dial a dead
	// port forever.
	err := dist.DialAndServe(ctx, connectAddr(), dist.DialOptions{Worker: opts, MaxRedials: 3})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runRawWorker dials the coordinator, says a valid hello, and hands every
// run request to onRun; it exits when the coordinator hangs up.
func runRawWorker(onRun func(net.Conn)) {
	conn, err := net.Dial("tcp", connectAddr())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_ = json.NewEncoder(conn).Encode(dist.Reply{Type: "hello", Proto: dist.ProtoVersion, PID: os.Getpid(), Slots: 1})
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		var req dist.Request
		if json.Unmarshal(sc.Bytes(), &req) == nil && req.Type == "run" {
			onRun(conn)
		}
	}
	os.Exit(0)
}

// spawnFleet spawns n re-execs of this test binary in the given mode.
// Fleet goroutines may log a beat after the test body returns, which
// t.Logf forbids, so the default Logf is a capture.
func spawnFleet(t *testing.T, n int, mode string, opts dist.FleetOptions, env ...string) *dist.Fleet {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = new(logCapture).logf
	}
	f, err := dist.SpawnFleet(n, []string{os.Args[0]}, append([]string{modeEnv + "=" + mode}, env...), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// microScale is a grid small enough for unit-test budget but wide enough
// (2 seeds × 3 policies) that reassembly order and cross-process float
// round-trips both matter.
func microScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Name = "dist-micro"
	s.TrainN, s.TestN = 128, 64
	s.Epochs = 2
	s.Models = []string{"cnn-s"}
	s.Seeds = []uint64{1, 2}
	s.Workers = 2
	return s
}

var microPolicies = []string{"ideal", "none", "remap-d"}

// TestDistByteIdenticalToInProcess is the acceptance criterion: the same
// Fig. 6 grid through two spawned worker processes must render the exact
// table the in-process runner renders.
func TestDistByteIdenticalToInProcess(t *testing.T) {
	reg := experiments.DefaultRegime()

	local := microScale()
	baseline, err := experiments.Fig6(context.Background(), local, reg, microPolicies)
	if err != nil {
		t.Fatal(err)
	}

	remote := microScale()
	remote.Exec = spawnFleet(t, 2, "worker", dist.FleetOptions{})
	rows, err := experiments.Fig6(context.Background(), remote, reg, microPolicies)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := experiments.FormatFig6(rows), experiments.FormatFig6(baseline); got != want {
		t.Fatalf("distributed Fig. 6 differs from in-process:\n--- in-process\n%s\n--- dist\n%s", want, got)
	}
}

// TestWorkerKilledMidCellRetriesAndResumes: a worker that dies abruptly
// mid-cell (after persisting an epoch) must cost one retry, not the grid —
// and the retry must resume from the shared checkpoint instead of
// recomputing, still producing the byte-identical table.
func TestWorkerKilledMidCellRetriesAndResumes(t *testing.T) {
	reg := experiments.DefaultRegime()
	scale := func() experiments.Scale {
		s := microScale()
		s.Seeds = []uint64{1}
		s.Epochs = 4 // several epochs after the first checkpoint, so the kill lands mid-cell
		s.Workers = 1
		return s
	}
	policies := []string{"remap-d"}

	local := scale()
	baseline, err := experiments.Fig6(context.Background(), local, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	marker := filepath.Join(t.TempDir(), "died-once")
	var capture logCapture
	remote := scale()
	remote.Exec = spawnFleet(t, 1, "worker-kill", dist.FleetOptions{Logf: capture.logf},
		ckptEnv+"="+ckptDir, markerEnv+"="+marker)
	remote.Progress = capture.logf
	rows, err := experiments.Fig6(context.Background(), remote, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(marker); err != nil {
		t.Fatal("the saboteur worker never died; the test exercised nothing")
	}
	if got, want := experiments.FormatFig6(rows), experiments.FormatFig6(baseline); got != want {
		t.Fatalf("post-crash Fig. 6 differs from in-process:\n--- in-process\n%s\n--- dist\n%s", want, got)
	}
	for _, must := range []string{"requeueing on a surviving worker", "respawning", "attempt 2", "resumed from checkpoint"} {
		if !capture.contains(must) {
			t.Fatalf("transcript missing %q:\n%s", must, capture.String())
		}
	}
}

// specCell builds a minimal but valid spec-carrying cell for executor
// unit tests (the grid tests above get theirs from the figure builders).
func specCell(policy string) experiments.Cell {
	s := microScale()
	sp := &experiments.CellSpec{
		Kind:   "policy",
		Key:    experiments.CellKey{Model: "cnn-s", Policy: policy, Seed: 1},
		Scale:  s.ScaleSpec,
		Regime: experiments.DefaultRegime(),
		Dataset: experiments.DatasetSpec{
			Name: "cifar10-like", Train: s.TrainN, Test: s.TestN, Img: s.ImgSize, Seed: 77,
		},
		Classes: 10,
	}
	return experiments.Cell{Spec: sp}
}

// TestGarbageWorkerExhaustsRetries: a worker that answers with
// non-protocol output must be dropped and the cell retried on its
// respawned process; when every attempt hits the same breakage, the
// error names the cell and the attempt count.
func TestGarbageWorkerExhaustsRetries(t *testing.T) {
	fleet := spawnFleet(t, 1, "garbage", dist.FleetOptions{Retries: 2})
	cell := specCell("ideal")
	res, err := fleet.Execute(context.Background(), 0, cell, nil)
	if err == nil {
		t.Fatal("garbage replies must fail the cell")
	}
	if !strings.Contains(err.Error(), cell.Spec.Key.String()) {
		t.Fatalf("error %q does not name the cell", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("error %q does not record exhausted retries", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
}

// TestDeterministicCellErrorNotRetried: a worker-reported cell error
// (here: an unknown policy, which every worker would reject identically)
// must fail immediately — retrying determinism is pure waste.
func TestDeterministicCellErrorNotRetried(t *testing.T) {
	fleet := spawnFleet(t, 1, "worker", dist.FleetOptions{})
	res, err := fleet.Execute(context.Background(), 0, specCell("no-such-policy"), nil)
	if err == nil {
		t.Fatal("unknown policy must fail the cell")
	}
	if !strings.Contains(err.Error(), "no-such-policy") {
		t.Fatalf("error %q does not surface the worker's message", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("deterministic failure took %d attempts, want 1 (no retry)", res.Attempts)
	}
}

// TestMuteWorkerHitsReplyTimeout: a worker that accepts cells but never
// answers must trip FleetOptions.Timeout, be dropped, and cost the cell
// its retries — the error names the silence, not a crash.
func TestMuteWorkerHitsReplyTimeout(t *testing.T) {
	fleet := spawnFleet(t, 1, "mute", dist.FleetOptions{Retries: 2, Timeout: 200 * time.Millisecond})
	res, err := fleet.Execute(context.Background(), 0, specCell("ideal"), nil)
	if err == nil {
		t.Fatal("a mute worker must fail the cell")
	}
	if !strings.Contains(err.Error(), "no result within") {
		t.Fatalf("error %q does not attribute the failure to the reply timeout", err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (each mute incarnation must burn one)", res.Attempts)
	}
}

// TestCloseRacesInFlightExecute: Close while a cell is mid-flight must
// leave Execute with an error or a completed result — never a hang, and
// never a freshly respawned orphan process (go test -race keeps the
// accounting honest).
func TestCloseRacesInFlightExecute(t *testing.T) {
	fleet := spawnFleet(t, 1, "worker", dist.FleetOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := fleet.Execute(context.Background(), 0, specCell("ideal"), nil)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	fleet.Close()
	select {
	case err := <-done:
		// Both outcomes are legal — the cell may have finished just
		// before Close — but a post-Close failure must say "closed",
		// not dress up as a worker crash with retries.
		if err != nil && !strings.Contains(err.Error(), "closed") {
			t.Fatalf("post-Close error %q does not name the closed fleet", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Execute hung after Close")
	}
}

// TestSpawnFailureFailsFast: workers that cannot join must fail the grid
// within seconds instead of stalling it — at SpawnFleet when a child
// exits before its hello, and at Execute when every slot crash-loops
// after the fleet came up.
func TestSpawnFailureFailsFast(t *testing.T) {
	t.Run("exit-before-hello", func(t *testing.T) {
		start := time.Now()
		f, err := dist.SpawnFleet(2, []string{os.Args[0]}, []string{modeEnv + "=exit-early"}, dist.FleetOptions{Logf: new(logCapture).logf})
		if err == nil {
			f.Close()
			t.Fatal("SpawnFleet succeeded with workers that never join")
		}
		if !strings.Contains(err.Error(), "exited before joining") {
			t.Fatalf("err = %v, want an exited-before-joining error", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("SpawnFleet took %s to notice", elapsed)
		}
	})
	t.Run("crash-loop", func(t *testing.T) {
		var capture logCapture
		marker := filepath.Join(t.TempDir(), "died-once")
		fleet := spawnFleet(t, 1, "crash-loop", dist.FleetOptions{Logf: capture.logf}, markerEnv+"="+marker)
		done := make(chan error, 1)
		go func() {
			_, err := fleet.Execute(context.Background(), 0, specCell("ideal"), nil)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "closed") {
				t.Fatalf("err = %v, want the closed fleet", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("Execute stalled on a crash-looping fleet:\n%s", capture.String())
		}
		if !capture.contains("every worker slot gave up") {
			t.Fatalf("transcript does not record the give-up:\n%s", capture.String())
		}
	})
}
