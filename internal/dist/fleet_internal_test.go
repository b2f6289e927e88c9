package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"remapd/internal/experiments"
)

// These tests live inside the package to reach hello and liveness
// internals the public surface hides on purpose: the worker table, the
// result reply, and the backoff schedule.

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// discardLogf swallows fleet chatter: fleet goroutines can log a drop a
// beat after the test body returns, which t.Logf forbids.
func discardLogf(string, ...interface{}) {}

func internalFleet(t *testing.T, opts FleetOptions) *Fleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(ln, opts)
	t.Cleanup(f.Close)
	return f
}

func internalSpecCell(policy string) experiments.Cell {
	s := experiments.QuickScale()
	s.Name = "dist-internal"
	s.TrainN, s.TestN = 64, 32
	s.Epochs = 1
	s.Models = []string{"cnn-s"}
	s.Seeds = []uint64{1}
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

// TestResultCarriesRunSeconds pins the worker's result reply: it
// carries the cell's run seconds, and every frame before it is a log
// line — there is no separate timing frame.
func TestResultCarriesRunSeconds(t *testing.T) {
	spec, err := experiments.EncodeSpec(internalSpecCell("ideal").Spec)
	if err != nil {
		t.Fatal(err)
	}
	var frames []Reply
	rep := runRequest(context.Background(), Request{Type: "run", ID: 1, Spec: spec},
		experiments.Runtime{}, func(r Reply) { frames = append(frames, r) })
	if rep.Error != "" {
		t.Fatalf("cell failed: %s", rep.Error)
	}
	if rep.Type != "result" || rep.ID != 1 || rep.Seconds <= 0 {
		t.Fatalf("result reply = %+v, want the cell's result with its run seconds", rep)
	}
	for _, fr := range frames {
		if fr.Type != "log" {
			t.Fatalf("frame before the result = %+v, want log lines only", fr)
		}
	}
}

// TestTooNewProtoRejected: a hello the fleet does not speak — any
// protocol version but ProtoVersion, or no slots — must be refused and
// the connection closed, never half-admitted.
func TestTooNewProtoRejected(t *testing.T) {
	f := internalFleet(t, FleetOptions{Logf: discardLogf})
	for _, tc := range []struct {
		name         string
		proto, slots int
	}{
		{"newer", ProtoVersion + 1, 1},
		{"older", ProtoVersion - 1, 1},
		{"no-proto", 0, 1},
		{"no-slots", ProtoVersion, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", f.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()
			if err := json.NewEncoder(conn).Encode(Reply{Type: "hello", Proto: tc.proto, PID: 42, Slots: tc.slots}); err != nil {
				t.Fatal(err)
			}
			// The fleet closes the connection on rejection; the read
			// unblocks with EOF rather than a deadline.
			buf := make([]byte, 1)
			if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Read(buf); err == nil {
				t.Fatal("rejected connection still delivered data")
			}
			if n := f.workerCount(); n != 0 {
				t.Fatalf("hello %+v was admitted (%d workers)", tc, n)
			}
		})
	}
}

// TestHeartbeatDeclaresDeadWorker: a worker whose TCP connection stays
// open but which stops answering — a partition or a wedged process —
// must be dropped at the liveness deadline and its in-flight cell
// requeued onto a later-joining live worker.
func TestHeartbeatDeclaresDeadWorker(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	capture := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// The deadline must be short enough to evict the zombie quickly but
	// generous enough that a live worker saturating every core with
	// training still gets its echo scheduled in time (the race detector
	// slows everything several-fold).
	f := internalFleet(t, FleetOptions{
		HeartbeatEvery:  50 * time.Millisecond,
		HeartbeatMisses: 5,
		Logf:            capture,
	})

	// The zombie: a valid hello, then total silence. It never reads
	// either, but the assigned frames fit the kernel buffers, so only
	// the heartbeat deadline can unmask it.
	zombie, err := net.Dial("tcp", f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = zombie.Close() }()
	if err := json.NewEncoder(zombie).Encode(Reply{Type: "hello", Proto: ProtoVersion, PID: 666, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "zombie admission", func() bool { return f.workerCount() == 1 })

	type out struct {
		res experiments.CellResult
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := f.Execute(context.Background(), 0, internalSpecCell("ideal"), nil)
		done <- out{res, err}
	}()

	// The cell lands on the zombie, the deadline fires, the zombie is
	// dropped, and the requeued attempt stalls on an empty pool.
	waitFor(t, "zombie eviction", func() bool { return f.workerCount() == 0 })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wdone := make(chan error, 1)
	go func() {
		wdone <- DialAndServe(ctx, f.Addr().String(), DialOptions{Logf: capture, RedialBase: 20 * time.Millisecond})
	}()

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Attempts < 2 {
			t.Fatalf("attempts = %d, want >= 2 (the zombie must cost a requeue)", o.res.Attempts)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("cell never completed after the live worker joined")
	}
	mu.Lock()
	transcript := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(transcript, "no frame for") {
		t.Fatalf("transcript does not attribute the drop to the heartbeat deadline:\n%s", transcript)
	}

	f.Close()
	select {
	case <-wdone:
	case <-time.After(60 * time.Second):
		t.Fatal("live worker did not exit after fleet close")
	}
}

// TestBackoffSchedule pins the deterministic doubling series and its cap.
func TestBackoffSchedule(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	want := map[int]time.Duration{
		0: 100 * time.Millisecond,
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		4: 800 * time.Millisecond,
		5: time.Second,
		6: time.Second,
		// Far past the cap: the loop must saturate, not overflow.
		500: time.Second,
	}
	for attempt, d := range want {
		if got := Backoff(attempt, base, max); got != d {
			t.Errorf("Backoff(%d) = %s, want %s", attempt, got, d)
		}
	}
}

// TestDialGivesUpAfterMaxRedials: a bounded worker must stop dialing a
// dead coordinator and say how hard it tried.
func TestDialGivesUpAfterMaxRedials(t *testing.T) {
	// Reserve a port and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	err = DialAndServe(context.Background(), addr, DialOptions{
		MaxRedials: 2,
		RedialBase: time.Millisecond,
		RedialMax:  2 * time.Millisecond,
		Logf:       discardLogf,
	})
	if err == nil || !strings.Contains(err.Error(), "gave up after") {
		t.Fatalf("err = %v, want a gave-up error", err)
	}
}
