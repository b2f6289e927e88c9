package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"remapd/internal/checkpoint"
	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// This file is the worker side of the protocol: a worker process dials
// the coordinator (DialAndServe), announces its slot count, and serves
// the protocol over the connection — up to Slots cells concurrently,
// heartbeat probes answered immediately from the read loop so liveness
// never depends on cell progress. A lost connection is redialed on the
// deterministic backoff schedule; a SIGINT drains gracefully (finish the
// in-flight cells, send goodbye, disconnect).

// WorkerOptions carries the worker process's local runtime facilities.
// Pointing Checkpoints at the coordinator's -checkpoint-dir is what makes
// retries cheap: a cell re-assigned after a crash resumes from the epochs
// its previous worker already persisted.
type WorkerOptions struct {
	Checkpoints *checkpoint.Store
	Metrics     *obs.Sink
}

// errShutdown marks a coordinator-requested shutdown — the one
// connection loss DialAndServe must not redial after.
var errShutdown = errors.New("dist: coordinator requested shutdown")

// DialOptions configures a dialing fleet worker.
type DialOptions struct {
	// Slots is the concurrent-cell capacity advertised in the hello
	// (<= 0 means 1). Each in-flight cell parallelises internally via
	// GOMAXPROCS, so slots > 1 only pays off on many-core workers.
	Slots int
	// Worker carries the process-local runtime facilities (checkpoint
	// store, metrics sink). Pointing Checkpoints at storage shared with
	// the coordinator is what makes requeues resume instead of recompute.
	Worker WorkerOptions
	// Chaos, when non-nil, wraps every dialed connection in the fault
	// injector (tests and the chaos-smoke CI job).
	Chaos *Chaos
	// RedialBase/RedialMax override the redial backoff schedule
	// (defaults redialBase/redialMax). MaxRedials bounds consecutive
	// failed dials before giving up; 0 retries forever — a standing
	// worker outwaits a coordinator restart.
	RedialBase time.Duration
	RedialMax  time.Duration
	MaxRedials int
	// Logf receives connection lifecycle notices (harness domain).
	Logf experiments.Logf
	// Trace, when non-nil, receives the worker-side structured event
	// trace (connect/disconnect/drain; the chaos injector adds sever).
	Trace *obs.FleetTrace
}

func (o DialOptions) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// DialAndServe connects to a coordinator at addr and serves cells until
// the coordinator sends shutdown or ctx is cancelled. A severed or
// refused connection is retried with exponential backoff; the failure
// counter resets on every successful session, so a long-lived worker
// that loses one connection redials promptly. Cancelling ctx drains
// gracefully: in-flight cells run to completion, their results are sent,
// a goodbye deregisters the worker, and DialAndServe returns nil.
func DialAndServe(ctx context.Context, addr string, opts DialOptions) error {
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.RedialBase <= 0 {
		opts.RedialBase = redialBase
	}
	if opts.RedialMax <= 0 {
		opts.RedialMax = redialMax
	}
	fails := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			fails++
			if opts.MaxRedials > 0 && fails > opts.MaxRedials {
				return fmt.Errorf("dist: dial %s: %w (gave up after %d attempts)", addr, err, fails)
			}
			wait := Backoff(fails, opts.RedialBase, opts.RedialMax)
			opts.logf("dist: dial %s failed (attempt %d): %v; redialing in %s", addr, fails, err, wait)
			if err := sleepCtx(ctx, wait); err != nil {
				return nil
			}
			continue
		}
		fails = 0
		c := net.Conn(conn)
		if opts.Chaos != nil {
			c = opts.Chaos.Wrap(c)
		}
		opts.logf("dist: connected to coordinator %s", addr)
		opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetConnect, Addr: addr, Slots: opts.Slots})
		err = serveConn(ctx, c, opts)
		_ = c.Close()
		switch {
		case errors.Is(err, errShutdown):
			opts.logf("dist: coordinator requested shutdown; exiting")
			opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetDisconnect, Addr: addr, Cause: "shutdown"})
			return nil
		case ctx.Err() != nil:
			return nil // drained after SIGINT
		}
		opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetDisconnect, Addr: addr, Cause: fmt.Sprint(err)})
		opts.logf("dist: connection to %s lost: %v; redialing in %s", addr, err, opts.RedialBase)
		if err := sleepCtx(ctx, opts.RedialBase); err != nil {
			return nil
		}
	}
}

// connWriter serialises reply frames from concurrent cell goroutines,
// the heartbeat echo, and the drain goodbye onto one connection.
type connWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

func (w *connWriter) send(rep Reply) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.enc.Encode(rep)
}

// serveConn runs one connection's worth of the worker protocol:
// hello, then a read loop dispatching heartbeats (answered inline),
// run requests (each on its own goroutine, bounded by Slots), and
// shutdown. Returns errShutdown on a coordinator-requested exit, nil
// after a ctx-cancelled graceful drain, and a connection error
// otherwise (the caller redials).
func serveConn(ctx context.Context, conn net.Conn, opts DialOptions) error {
	cw := &connWriter{enc: json.NewEncoder(conn)}
	if err := cw.send(Reply{Type: "hello", Proto: ProtoVersion, PID: os.Getpid(), Slots: opts.Slots}); err != nil {
		return fmt.Errorf("dist: worker hello: %w", err)
	}

	// Cells run under their own context: a SIGINT drain must let them
	// finish (cellCtx stays live), while a dead connection must stop
	// them at the next batch boundary (their results have nowhere to go;
	// the coordinator has already requeued them).
	cellCtx, cancelCells := context.WithCancel(context.Background())
	defer cancelCells()

	var (
		wg       sync.WaitGroup
		drainMu  sync.Mutex
		draining bool
	)
	// Graceful drain on ctx cancellation (worker SIGINT): tell the
	// coordinator to assign nothing new, let the in-flight cells finish
	// and their results flush, then close the connection to unblock the
	// read loop below.
	served := make(chan struct{})
	go func() {
		select {
		case <-served:
		case <-ctx.Done():
			drainMu.Lock()
			draining = true
			drainMu.Unlock()
			opts.logf("dist: draining: finishing in-flight cells before exit")
			opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetDrain})
			_ = cw.send(Reply{Type: "goodbye", PID: os.Getpid()})
			wg.Wait()
			_ = conn.Close()
		}
	}()
	defer close(served)

	rt := experiments.Runtime{Checkpoints: opts.Worker.Checkpoints, Metrics: opts.Worker.Metrics}
	sem := make(chan struct{}, opts.Slots)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			return fmt.Errorf("dist: worker: malformed request: %w", err)
		}
		switch req.Type {
		case "heartbeat":
			// Answered from the read loop, never a cell goroutine: a
			// busy worker is alive, and must look alive.
			if err := cw.send(Reply{Type: "heartbeat", ID: req.ID}); err != nil {
				return fmt.Errorf("dist: worker: write heartbeat: %w", err)
			}
		case "shutdown":
			cancelCells()
			wg.Wait()
			return errShutdown
		case "run":
			drainMu.Lock()
			d := draining
			drainMu.Unlock()
			if d {
				// Raced the goodbye: skip it silently — the coordinator
				// requeues every assigned-but-unanswered cell when the
				// connection closes.
				continue
			}
			// The coordinator never assigns beyond the advertised slot
			// count, so this acquire cannot block in practice; it is a
			// backstop against a misbehaving peer.
			sem <- struct{}{}
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				defer func() { <-sem }()
				rep := runRequest(cellCtx, req, rt, func(log Reply) { _ = cw.send(log) })
				if err := cw.send(rep); err != nil {
					opts.logf("dist: result for request %d lost (%v); the coordinator will requeue the cell", req.ID, err)
				}
			}(req)
		default:
			return fmt.Errorf("dist: worker: unknown request type %q", req.Type)
		}
	}
	// Read loop ended: the connection is gone (coordinator exit, network
	// fault, or our own drain close). Stop in-flight cells — their
	// results have no route — and join them before returning.
	cancelCells()
	wg.Wait()
	if ctx.Err() != nil {
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dist: worker: read request: %w", err)
	}
	return errors.New("dist: connection closed by coordinator")
}

// runRequest executes one run request through CellSpec.Execute, the same
// path the in-process runner takes, and builds its result reply. Every
// failure mode that is a property of the spec (unknown kind, bad
// coordinates, a deterministic training error, a panic) becomes an error
// reply — the coordinator must not retry those, because every worker
// would fail identically. send carries the in-flight cell's log replies
// back through the connection's mutex, so concurrent cells do not
// interleave frames. The result carries the cell's run seconds —
// harness-domain timing only, never part of the result itself.
func runRequest(ctx context.Context, req Request, rt experiments.Runtime, send func(Reply)) Reply {
	sp, err := experiments.DecodeSpec(req.Spec)
	if err != nil {
		return Reply{Type: "result", ID: req.ID, Error: err.Error()}
	}
	logf := func(format string, args ...interface{}) {
		// Progress lines stream back live so the coordinator's runner can
		// multiplex them under the cell's key prefix exactly as it does
		// for in-process cells. A lost log line is cosmetic, never load
		// bearing, so the write error is ignored — a truly dead
		// connection surfaces at the result write.
		send(Reply{Type: "log", ID: req.ID, Line: fmt.Sprintf(format, args...)})
	}
	//lint:allow no-wall-clock harness-domain run-segment timing measures the machine, never the simulation
	start := time.Now()
	res, err := sp.Execute(ctx, rt, logf)
	//lint:allow no-wall-clock harness-domain run-segment timing measures the machine, never the simulation
	rep := Reply{Type: "result", ID: req.ID, Seconds: time.Since(start).Seconds()}
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	if rep.Value, err = json.Marshal(res); err != nil {
		rep.Error = fmt.Sprintf("dist: encode result for %s: %v", sp.Key, err)
	}
	return rep
}
