package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"remapd/internal/det"
	"remapd/internal/experiments"
	"remapd/internal/obs"
	"remapd/internal/trainer"
)

// This file is the coordinator side of the protocol. A Fleet owns a
// net.Listener; workers dial in, announce a slot count, and the fleet
// schedules cells onto whichever connected worker has free capacity.
// Workers may join and leave mid-grid: a joiner starts receiving cells
// immediately, a leaver (crash, partition, drain) has its in-flight cells
// requeued onto survivors, and when the pool is empty the grid stalls
// with a progress log instead of failing.

const (
	// DefaultRetries bounds how many workers a cell is offered before its
	// failure is final. Three attempts tolerates two crashes per cell
	// without letting a poisoned cell spin forever.
	DefaultRetries = 3

	// helloTimeout bounds how long a fresh connection (or a freshly
	// spawned worker) may take to announce itself; one that says nothing
	// (or something else) within it is not speaking the protocol.
	helloTimeout = 30 * time.Second

	// DefaultHeartbeatEvery is the probe interval for connected workers;
	// DefaultHeartbeatMisses consecutive unanswered probes
	// declare the worker dead. Any frame from the worker — log, result,
	// heartbeat — proves liveness, so a busy worker streaming epoch logs
	// never needs its probes to land on time.
	DefaultHeartbeatEvery  = 5 * time.Second
	DefaultHeartbeatMisses = 3

	// fleetStallEvery paces the "grid is stalled" progress log while the
	// fleet waits for a worker to (re)join.
	fleetStallEvery = 10 * time.Second

	// closeGrace bounds how long Close leaves connections open for
	// workers to act on the shutdown frame before reaping them.
	closeGrace = 2 * time.Second
)

// FleetOptions configures a listening coordinator.
type FleetOptions struct {
	// HeartbeatEvery / HeartbeatMisses tune the liveness deadline
	// (defaults above). A worker is declared dead after Misses+1
	// intervals with no frame of any kind.
	HeartbeatEvery  time.Duration
	HeartbeatMisses int
	// Logf receives join/leave/requeue/stall notices (harness domain;
	// results never depend on it).
	Logf experiments.Logf
	// Trace, when non-nil, receives the fleet's membership events (join,
	// leave, drop, stall, drain). A cell's own events go to the timeline
	// on its experiments.Cell; the tools pass the same stream to both.
	Trace *obs.FleetTrace
}

// Fleet is an experiments.CellExecutor backed by a dynamic pool of
// dialed-in workers. The runner keeps its own scheduling discipline
// (bounded in-flight set, deterministic reassembly by submission index);
// the fleet only decides which connected worker runs each cell, so
// results are byte-identical to the in-process path no matter how the
// pool churns.
type Fleet struct {
	opts  FleetOptions
	ln    net.Listener
	spawn *spawner // the exec'd local workers; nil unless SpawnFleet built the fleet

	mu        sync.Mutex
	workers   map[string]*fleetWorker
	notify    chan struct{} // closed+replaced whenever capacity may have grown
	closed    bool
	closeOnce sync.Once

	nextID     atomic.Int64 // request IDs, shared across all connections
	nextWorker atomic.Int64 // join counter, names workers deterministically
}

// fleetWorker is one connected worker: its connection, advertised
// capacity, and the demux table routing reply frames to in-flight cells.
type fleetWorker struct {
	name  string
	addr  string
	conn  net.Conn
	slots int

	// Harness-domain connection state (see stats.go). counts meters the
	// raw connection; the rest are stamped by the read loop and the
	// heartbeat monitor.
	counts        *countingConn
	lastSeenNano  atomic.Int64
	rttNano       atomic.Int64
	probeID       atomic.Int64
	probeSentNano atomic.Int64

	// inflight and draining are guarded by Fleet.mu (they are part of
	// the fleet's scheduling state, not the connection's).
	inflight int
	draining bool

	sendMu sync.Mutex
	enc    *json.Encoder

	// pending routes reply frames by request ID to the runOn call
	// waiting on them. Channels are buffered and never closed — a
	// dropped worker signals death through gone instead, so the read
	// loop can never send on a closed channel.
	pendMu  sync.Mutex
	pending map[int64]chan Reply

	gone     chan struct{} // closed exactly once when the worker is dropped
	goneOnce sync.Once
	missed   atomic.Int32 // consecutive heartbeat intervals with no frame
}

// send writes one request line; the mutex serialises cell assignments,
// heartbeat probes, and the shutdown frame onto the shared encoder.
func (w *fleetWorker) send(req Request) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return w.enc.Encode(req)
}

// register opens the reply route for a request. The buffer absorbs log
// frames while the consumer is between selects; route never blocks on it.
func (w *fleetWorker) register(id int64) chan Reply {
	ch := make(chan Reply, 1024)
	w.pendMu.Lock()
	w.pending[id] = ch
	w.pendMu.Unlock()
	return ch
}

func (w *fleetWorker) deregister(id int64) {
	w.pendMu.Lock()
	delete(w.pending, id)
	w.pendMu.Unlock()
}

// route delivers one log/result frame to the cell waiting on it. Frames
// for unknown IDs (a requeued cell's late replies from a half-dead
// worker) are discarded; a full buffer means the consumer is gone, and
// the read loop must not block on its behalf.
func (w *fleetWorker) route(rep Reply) {
	w.pendMu.Lock()
	ch := w.pending[rep.ID]
	w.pendMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- rep:
	default:
	}
}

// NewFleet wraps an already-listening socket and starts accepting
// workers. The caller owns nothing afterwards: Close tears down the
// listener and every connection.
func NewFleet(ln net.Listener, opts FleetOptions) *Fleet {
	return newFleet(ln, opts, nil)
}

func newFleet(ln net.Listener, opts FleetOptions, spawn *spawner) *Fleet {
	f := &Fleet{
		ln:      ln,
		opts:    opts,
		spawn:   spawn,
		workers: map[string]*fleetWorker{},
		notify:  make(chan struct{}),
	}
	go f.accept()
	return f
}

// Addr reports the listener's address (useful with ":0" listeners).
func (f *Fleet) Addr() net.Addr { return f.ln.Addr() }

func (f *Fleet) logf(format string, args ...interface{}) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

func (f *Fleet) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

func (f *Fleet) workerCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.workers)
}

// notifyLocked wakes every acquire waiting for capacity. Callers hold
// f.mu.
func (f *Fleet) notifyLocked() {
	close(f.notify)
	f.notify = make(chan struct{})
}

// accept admits dialing workers until the listener closes.
func (f *Fleet) accept() {
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			if f.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd pressure, aborted handshake):
			// log, breathe, keep listening.
			f.logf("dist: fleet: accept: %v", err)
			_ = sleepCtx(context.Background(), 100*time.Millisecond)
			continue
		}
		go f.serve(conn)
	}
}

// serve owns one connection: validate the hello, register the worker,
// start its liveness monitor, then pump its reply stream until it dies.
func (f *Fleet) serve(raw net.Conn) {
	// Meter the connection from the first byte; the hello itself counts.
	cc := &countingConn{Conn: raw}
	conn := net.Conn(cc)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	// The hello must arrive promptly; a timer closing the conn is the
	// deadline (no SetReadDeadline, which would drag wall-clock
	// arithmetic into the package).
	guard := time.AfterFunc(helloTimeout, func() { _ = conn.Close() })
	hello, err := readHello(sc)
	guard.Stop()
	if err == nil && !f.spawn.admit(hello.PID) {
		err = fmt.Errorf("pid %d is not one of this fleet's spawned workers", hello.PID)
	}
	if err != nil {
		f.logf("dist: fleet: rejected connection from %v: %v", conn.RemoteAddr(), err)
		_ = conn.Close()
		return
	}
	w := &fleetWorker{
		name:    fmt.Sprintf("fw%d/pid%d", f.nextWorker.Add(1), hello.PID),
		addr:    fmt.Sprint(conn.RemoteAddr()),
		conn:    conn,
		slots:   hello.Slots,
		counts:  cc,
		enc:     json.NewEncoder(conn),
		pending: map[int64]chan Reply{},
		gone:    make(chan struct{}),
	}
	w.markSeen()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		_ = w.send(Request{Type: "shutdown"})
		_ = conn.Close()
		return
	}
	f.workers[w.name] = w
	f.notifyLocked()
	n := len(f.workers)
	f.mu.Unlock()
	f.logf("dist: fleet: %s joined from %v (%d slot(s)); %d worker(s) connected", w.name, conn.RemoteAddr(), w.slots, n)
	f.opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetJoin, Worker: w.name, Addr: w.addr, Proto: ProtoVersion, Slots: w.slots, Workers: n})
	go f.monitor(w)
	f.read(w, sc)
}

// readHello consumes the connection's first line and validates it.
func readHello(sc *bufio.Scanner) (Reply, error) {
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rep Reply
		if err := json.Unmarshal(line, &rep); err != nil {
			return Reply{}, fmt.Errorf("malformed hello: %v", err)
		}
		if rep.Type != "hello" {
			return Reply{}, fmt.Errorf("first reply %q, want hello", rep.Type)
		}
		if rep.Proto != ProtoVersion {
			return Reply{}, fmt.Errorf("speaks protocol %d, want %d", rep.Proto, ProtoVersion)
		}
		if rep.Slots < 1 {
			return Reply{}, fmt.Errorf("advertises %d slots, want >= 1", rep.Slots)
		}
		return rep, nil
	}
	if err := sc.Err(); err != nil {
		return Reply{}, err
	}
	return Reply{}, errors.New("connection closed before hello")
}

// read pumps one worker's reply stream. Every frame resets the liveness
// counter; garbled input or an unknown type is a protocol failure that
// drops the worker (its in-flight cells requeue elsewhere).
func (f *Fleet) read(w *fleetWorker, sc *bufio.Scanner) {
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rep Reply
		if err := json.Unmarshal(line, &rep); err != nil {
			f.drop(w, fmt.Errorf("garbled reply: %v", err))
			return
		}
		w.missed.Store(0)
		w.markSeen()
		switch rep.Type {
		case "heartbeat":
			// Liveness already noted above. If this echoes the monitor's
			// outstanding probe, the elapsed time is the round trip.
			if rep.ID != 0 && rep.ID == w.probeID.Load() {
				//lint:allow no-wall-clock harness-domain heartbeat RTT measures the machine, never the simulation
				w.rttNano.Store(time.Now().UnixNano() - w.probeSentNano.Load())
			}
		case "goodbye":
			f.mu.Lock()
			w.draining = true
			f.mu.Unlock()
			f.logf("dist: fleet: %s is draining; assigning it nothing new", w.name)
			f.opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetDrain, Worker: w.name})
		case "log", "result":
			w.route(rep)
		default:
			f.drop(w, fmt.Errorf("unexpected reply type %q", rep.Type))
			return
		}
	}
	err := sc.Err()
	if err == nil {
		err = errors.New("connection closed")
	}
	f.drop(w, err)
}

// drop removes a worker from the pool, exactly once. Cells waiting on it
// observe the closed gone channel and requeue; pending reply channels
// are deliberately left open (late routes hit an empty pending map).
func (f *Fleet) drop(w *fleetWorker, cause error) {
	w.goneOnce.Do(func() {
		close(w.gone)
		_ = w.conn.Close()
		f.mu.Lock()
		delete(f.workers, w.name)
		n := len(f.workers)
		graceful := w.draining || f.closed
		f.notifyLocked()
		f.mu.Unlock()
		f.logf("dist: fleet: %s gone (%v); %d worker(s) remain; its in-flight cells will be requeued", w.name, cause, n)
		kind := obs.FleetDrop
		if graceful {
			// A drained worker's disconnect is the graceful exit it
			// announced, and after Close every disconnect is the
			// shutdown the coordinator asked for: neither is a failure.
			kind = obs.FleetLeave
		}
		f.opts.Trace.Emit(obs.FleetEvent{Kind: kind, Worker: w.name, Workers: n, Cause: fmt.Sprint(cause)})
	})
}

// acquire reserves one slot on the least-loaded live worker, blocking —
// with a periodic stall log — until capacity exists or ctx ends. Ties
// break on worker name so scheduling is reproducible given the same
// join order.
func (f *Fleet) acquire(ctx context.Context) (*fleetWorker, error) {
	var (
		stallC <-chan time.Time
		logged bool
	)
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return nil, errors.New("dist: fleet closed")
		}
		var best *fleetWorker
		for _, name := range det.SortedKeys(f.workers) {
			w := f.workers[name]
			if w.draining || w.inflight >= w.slots {
				continue
			}
			if best == nil || w.inflight < best.inflight {
				best = w
			}
		}
		if best != nil {
			// This counter is what guarantees the worker-side slot
			// semaphore never blocks its read loop: assignments per
			// worker never exceed its advertised capacity.
			best.inflight++
			f.mu.Unlock()
			return best, nil
		}
		wake := f.notify
		n := len(f.workers)
		f.mu.Unlock()
		if !logged {
			logged = true
			if n == 0 {
				f.logf("dist: fleet: no workers connected; grid is stalled until one joins")
				f.opts.Trace.Emit(obs.FleetEvent{Kind: obs.FleetStall, Workers: n})
			}
			stall := time.NewTicker(fleetStallEvery)
			defer stall.Stop()
			stallC = stall.C
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wake:
		case <-stallC:
			f.logf("dist: fleet: still waiting for a worker slot (%d worker(s) connected)", f.workerCount())
		}
	}
}

// release returns a slot and wakes waiters. Safe on dropped workers.
func (f *Fleet) release(w *fleetWorker) {
	f.mu.Lock()
	if w.inflight > 0 {
		w.inflight--
	}
	f.notifyLocked()
	f.mu.Unlock()
}

// Execute implements experiments.CellExecutor: acquire a worker, run the
// cell on it, and on any worker-attributable failure requeue onto a
// survivor after a deterministic backoff, up to DefaultRetries attempts.
// Shared checkpoints make requeues resume rather than recompute. Each
// attempt's dispatch, run and requeue go to the cell's timeline.
func (f *Fleet) Execute(ctx context.Context, slot int, cell experiments.Cell, logf experiments.Logf) (experiments.CellResult, error) {
	_ = slot // the fleet schedules by worker capacity, not runner slot
	key := cell.Spec.Key
	res := experiments.CellResult{Key: key}
	spec, err := experiments.EncodeSpec(cell.Spec)
	if err != nil {
		return res, err
	}
	var lastErr error
	for attempt := 1; attempt <= DefaultRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.Attempts = attempt
		w, err := f.acquire(ctx)
		if err != nil {
			return res, err
		}
		res.Worker = w.name
		cell.Trace.Emit(obs.FleetEvent{Kind: obs.FleetDispatch, Worker: w.name, Cell: key.String(), Attempt: attempt})
		result, err := f.runOn(ctx, w, spec, cell, logf)
		f.release(w)
		if err == nil {
			res.Result = result
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		var fatal *cellError
		if errors.As(err, &fatal) {
			// Deterministic cell failure: every worker would fail the
			// same way. Wrap with the key like the in-process runner.
			return res, fmt.Errorf("cell %s: %s", key, fatal.msg)
		}
		lastErr = err
		f.logf("dist: fleet: cell %s attempt %d/%d failed: %v; requeueing on a surviving worker", key, attempt, DefaultRetries, err)
		cell.Trace.Emit(obs.FleetEvent{Kind: obs.FleetRequeue, Worker: w.name, Cell: key.String(), Attempt: attempt, Cause: fmt.Sprint(err)})
		if attempt < DefaultRetries {
			if err := sleepCtx(ctx, Backoff(attempt, requeueBase, requeueMax)); err != nil {
				return res, err
			}
		}
	}
	return res, fmt.Errorf("dist: fleet: cell %s failed after %d attempts: %w", key, DefaultRetries, lastErr)
}

// runOn assigns one cell to one worker and waits for its result,
// streaming log frames through logf and recording the result's run
// seconds on the cell's timeline. Worker death (gone) or a protocol
// surprise returns a retryable error; an Error reply is the cell's own
// fault and comes back as *cellError.
func (f *Fleet) runOn(ctx context.Context, w *fleetWorker, spec []byte, cell experiments.Cell, logf experiments.Logf) (*trainer.Result, error) {
	id := f.nextID.Add(1)
	ch := w.register(id)
	defer w.deregister(id)
	if err := w.send(Request{Type: "run", ID: id, Spec: spec}); err != nil {
		f.drop(w, fmt.Errorf("send cell: %w", err))
		return nil, fmt.Errorf("dist: fleet: send cell to %s: %w", w.name, err)
	}
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-w.gone:
			return nil, fmt.Errorf("dist: fleet: %s died mid-cell", w.name)
		case rep := <-ch:
			switch rep.Type {
			case "log":
				if logf != nil {
					logf("%s", rep.Line)
				}
			case "result":
				// Worker-measured run segment: harness-domain timing
				// only, folded into the cell's span.
				cell.Trace.Emit(obs.FleetEvent{Kind: obs.FleetRun, Cell: cell.Spec.Key.String(), Seconds: rep.Seconds})
				if rep.Error != "" {
					if rep.Error == context.Canceled.Error() {
						// The worker's cells were cancelled out from
						// under it (its shutdown raced this assignment):
						// a worker property, requeue.
						return nil, fmt.Errorf("dist: fleet: %s: cell cancelled worker-side", w.name)
					}
					return nil, &cellError{msg: rep.Error}
				}
				return decodeResult(rep)
			default:
				f.drop(w, fmt.Errorf("unexpected routed reply type %q", rep.Type))
				return nil, fmt.Errorf("dist: fleet: %s: unexpected reply type %q", w.name, rep.Type)
			}
		}
	}
}

// Close stops accepting, asks every worker to shut down, and reaps
// stragglers after a grace period. The shutdown frame is sent but the
// connection left open so the worker can close its own side — closing
// first could reset the socket and discard the frame unread. Workers
// that never act on it (partitioned) are cut off by the grace timer. On
// a spawned fleet Close also waits for every child process to exit
// (see spawner.reap), so no worker outlives it. Every call returns only
// once the first has finished.
func (f *Fleet) Close() { f.closeOnce.Do(f.close) }

func (f *Fleet) close() {
	f.mu.Lock()
	f.closed = true
	workers := f.workers
	f.workers = map[string]*fleetWorker{}
	f.notifyLocked()
	f.mu.Unlock()
	_ = f.ln.Close()
	for _, name := range det.SortedKeys(workers) {
		_ = workers[name].send(Request{Type: "shutdown"})
	}
	time.AfterFunc(closeGrace, func() {
		for _, name := range det.SortedKeys(workers) {
			_ = workers[name].conn.Close()
		}
	})
	f.spawn.reap()
}

// cellError marks a worker-reported deterministic cell failure (retrying
// cannot help).
type cellError struct{ msg string }

func (e *cellError) Error() string { return e.msg }

// decodeResult rebuilds the training result from a result reply.
func decodeResult(rep Reply) (*trainer.Result, error) {
	res := &trainer.Result{}
	if err := json.Unmarshal(rep.Value, res); err != nil {
		return nil, fmt.Errorf("dist: decode result: %w", err)
	}
	return res, nil
}

var _ experiments.CellExecutor = (*Fleet)(nil)
