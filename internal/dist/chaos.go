package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"remapd/internal/experiments"
	"remapd/internal/obs"
)

// Chaos is a deterministic network-fault injector for the TCP transport.
// A worker wraps its dialed connection (DialOptions.Chaos) and every
// outbound frame — hello, log, result, heartbeat — passes through the
// injector, which may sever the connection mid-cell or garble one frame.
// Both faults are one-shot and decided by the frame counter alone, never
// the wall clock, so a chaos run is reproducible: same config, same
// faults, same transcript.
//
// The point of the harness is the byte-identity pin: because severed and
// garbled cells requeue onto (re)connected workers and resume from
// shared checkpoints, a grid run under chaos must produce output
// byte-identical to a fault-free run. The fleet tests and the
// chaos-smoke CI job assert exactly that.
type ChaosConfig struct {
	// SeverAfter, when > 0, arms a one-shot connection cut once that
	// many frames have been written. The cut lands on the next log frame
	// whose request already produced an earlier log frame — i.e. strictly
	// mid-cell, at least one epoch in. The trainer emits an epoch's log
	// line before saving its checkpoint, so by the second log frame a
	// persisted checkpoint is guaranteed and the requeued cell resumes
	// instead of restarting. One cut per Chaos value: the redialed
	// connection runs clean, which is what lets the grid finish.
	SeverAfter int

	// GarbleAfter, when > 0, arms a one-shot garble: the first frame at
	// or past this count is corrupted, and every frame after it passes
	// clean. The coordinator treats an unparseable line as a protocol
	// failure and drops the worker, so garbling exercises the full
	// drop-requeue-redial cycle; the redialed connection's retry is
	// guaranteed to run unfaulted, independent of how many frames an
	// attempt writes.
	GarbleAfter int
}

// Chaos carries the injector's mutable state across every connection it
// wraps — the frame counter and one-shot flags survive a redial, so a
// severed worker's second connection is not severed again.
type Chaos struct {
	cfg   ChaosConfig
	logf  experiments.Logf
	trace *obs.FleetTrace

	mu      sync.Mutex
	frames  int
	severed bool
	garbled bool          // one-shot GarbleAfter has fired
	logSeen map[int64]int // log frames observed per request ID
}

// SetTrace routes each injected sever into the worker's structured event
// trace alongside the free-form "chaos:" log lines. Nil-safe target.
func (c *Chaos) SetTrace(t *obs.FleetTrace) { c.trace = t }

// NewChaos builds an injector. logf (optional) narrates every injected
// fault with a "chaos:" prefix so tests and CI can grep the schedule.
func NewChaos(cfg ChaosConfig, logf experiments.Logf) *Chaos {
	return &Chaos{
		cfg:     cfg,
		logf:    logf,
		logSeen: map[int64]int{},
	}
}

func (c *Chaos) say(format string, args ...interface{}) {
	if c.logf != nil {
		c.logf(format, args...)
	}
}

// Wrap interposes the injector on a connection's write path. Reads pass
// through untouched: faults are injected on the worker's outbound frames,
// where every failure mode the coordinator must tolerate can be produced.
func (c *Chaos) Wrap(conn net.Conn) net.Conn {
	return &chaosConn{Conn: conn, chaos: c}
}

type chaosConn struct {
	net.Conn
	chaos *Chaos
}

func (cc *chaosConn) Write(p []byte) (int, error) {
	return cc.chaos.write(cc.Conn, p)
}

// write applies the fault schedule to one frame. The connWriter already
// serialises callers per connection, but the semaphore also protects the
// injector's own state when a redialed connection overlaps teardown of
// the old one.
func (c *Chaos) write(conn net.Conn, p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.frames++
	frame := c.frames
	var rep Reply
	isLog := false
	if err := json.Unmarshal(p, &rep); err == nil && rep.Type == "log" {
		isLog = true
		c.logSeen[rep.ID]++
	}

	if c.cfg.SeverAfter > 0 && !c.severed && frame >= c.cfg.SeverAfter && isLog && c.logSeen[rep.ID] >= 2 {
		c.severed = true
		c.say("chaos: severing connection at frame %d (request %d, mid-cell)", frame, rep.ID)
		c.trace.Emit(obs.FleetEvent{Kind: obs.FleetSever, Cause: fmt.Sprintf("chaos sever at frame %d", frame)})
		_ = conn.Close()
		return 0, errors.New("chaos: connection severed")
	}
	if c.cfg.GarbleAfter > 0 && !c.garbled && frame >= c.cfg.GarbleAfter {
		c.garbled = true
		q := append([]byte(nil), p...)
		// Corrupt one byte of the JSON body (never the trailing
		// newline — framing stays line-delimited, the line just stops
		// parsing). Flip the colon after the type key: a structural
		// byte, so the line is guaranteed unparseable rather than a
		// string value that happens to survive corruption. Every frame
		// is an encoded Reply, so the colon is always there.
		q[bytes.IndexByte(q, ':')] ^= 0xFF
		c.say("chaos: garbled frame %d", frame)
		return conn.Write(q)
	}
	return conn.Write(p)
}

// String summarises the armed fault schedule for startup logs.
func (c *Chaos) String() string {
	return fmt.Sprintf("chaos(sever-after=%d garble-after=%d)", c.cfg.SeverAfter, c.cfg.GarbleAfter)
}
