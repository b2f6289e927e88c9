package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"remapd/internal/det"
)

// killDelay is how long Close gives a spawned worker to exit before
// killing it.
const killDelay = 10 * time.Second

// SpawnFleet runs a Fleet on a loopback port and execs n worker processes
// into it (the -dist N path). Each child runs
//
//	argv[0] -worker -connect <addr> argv[1:]...
//
// with env appended to the inherited environment. argv[0] must serve
// DialAndServe under -worker -connect and be exec'd directly: the fleet
// admits only hellos whose PID is one of its children. A child's stdout
// and stderr both go to the coordinator's stderr, keeping its stdout for
// the tables.
//
// SpawnFleet returns once all n children have joined. It fails, reaping
// every child, if one exits first or stays silent past the hello
// timeout. Afterwards a child that exits is respawned into its slot after
// Backoff(fails, requeueBase, requeueMax), where fails counts the slot's
// consecutive exits without a join. A slot gives up after DefaultRetries
// of those; once every slot has given up the fleet closes, so the grid
// fails instead of stalling. Close reaps every child.
func SpawnFleet(n int, argv, env []string, opts FleetOptions) (*Fleet, error) {
	if n < 1 || len(argv) == 0 {
		return nil, fmt.Errorf("dist: spawn %d worker(s) of %q: need at least one worker and a command", n, argv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: spawn: %w", err)
	}
	s := &spawner{
		argv:     append([]string{argv[0], "-worker", "-connect", ln.Addr().String()}, argv[1:]...),
		env:      append(os.Environ(), env...),
		slots:    n,
		children: map[int]*child{},
	}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.fleet = newFleet(ln, opts, s)
	ready := make(chan error, n)
	s.wg.Add(n)
	for slot := 0; slot < n; slot++ {
		go s.supervise(slot, ready)
	}
	for i := 0; i < n; i++ {
		if err := <-ready; err != nil {
			s.fleet.Close()
			return nil, err
		}
	}
	return s.fleet, nil
}

// spawner owns a spawned fleet's worker processes: one supervisor
// goroutine per slot launches its child, waits for it, and respawns it.
type spawner struct {
	fleet *Fleet
	argv  []string
	env   []string
	slots int
	wg    sync.WaitGroup // one per supervisor
	ctx   context.Context
	stop  context.CancelFunc // called by reap

	mu       sync.Mutex
	children map[int]*child // running children by PID
	gaveUp   int            // slots that stopped respawning
}

// child is one spawned worker process.
type child struct {
	name     string
	cmd      *exec.Cmd
	joined   chan struct{} // closed on the child's first hello
	joinOnce sync.Once
	exited   chan struct{} // closed once the process is reaped
}

func (s *spawner) logf(format string, args ...interface{}) { s.fleet.logf(format, args...) }

// admit reports whether a hello's PID is one of the running children, and
// marks that child joined. A nil spawner (a NewFleet fleet) admits every
// worker.
func (s *spawner) admit(pid int) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	c := s.children[pid]
	s.mu.Unlock()
	if c == nil {
		return false
	}
	c.joinOnce.Do(func() { close(c.joined) })
	return true
}

// supervise keeps one slot's child running until reap: launch it, wait
// for its join (the first launch reports the outcome on ready), wait for
// its exit, back off, respawn.
func (s *spawner) supervise(slot int, ready chan<- error) {
	defer s.wg.Done()
	fails := 0
	for first := true; ; first = false {
		joined := false
		c, err := s.start(slot)
		if err == nil {
			err = c.awaitJoin()
			if joined = err == nil; joined {
				if first {
					ready <- nil
				}
				fails = 0
				<-c.exited
				err = fmt.Errorf("dist: worker %s exited (%s)", c.name, c.cmd.ProcessState)
			}
		}
		if first && !joined {
			ready <- err
			return
		}
		if s.ctx.Err() != nil {
			return
		}
		if !joined {
			fails++
		}
		if fails >= DefaultRetries {
			s.logf("%v; slot %d exited %d times in a row without joining, not respawning", err, slot, fails)
			s.mu.Lock()
			s.gaveUp++
			none := s.gaveUp == s.slots
			s.mu.Unlock()
			if none {
				s.logf("dist: every worker slot gave up; closing the fleet")
				// Close reaps, and reaping waits for this supervisor to return.
				go s.fleet.Close()
			}
			return
		}
		wait := Backoff(fails, requeueBase, requeueMax)
		s.logf("%v; respawning in %s", err, wait)
		if sleepCtx(s.ctx, wait) != nil {
			return
		}
	}
}

// start execs one child for slot. It refuses once reap has begun, so reap
// waits for every child that was ever started.
func (s *spawner) start(slot int) (*child, error) {
	cmd := exec.Command(s.argv[0], s.argv[1:]...)
	cmd.Env = s.env
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	setParentDeathSignal(cmd)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return nil, errors.New("dist: fleet closed")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: start worker: %w", err)
	}
	pid := cmd.Process.Pid
	c := &child{
		name:   fmt.Sprintf("w%d/pid%d", slot, pid),
		cmd:    cmd,
		joined: make(chan struct{}),
		exited: make(chan struct{}),
	}
	s.children[pid] = c
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		s.mu.Lock()
		delete(s.children, pid)
		s.mu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// awaitJoin waits for the child's hello. A child that exits first, or
// stays silent past helloTimeout (it is killed then), has not joined.
func (c *child) awaitJoin() error {
	timer := time.NewTimer(helloTimeout)
	defer timer.Stop()
	select {
	case <-c.joined:
		return nil
	case <-c.exited:
		select {
		case <-c.joined:
			return nil // joined, then exited straight away
		default:
		}
		return fmt.Errorf("dist: worker %s exited before joining (%s)", c.name, c.cmd.ProcessState)
	case <-timer.C:
		_ = c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("dist: worker %s: no hello within %s", c.name, helloTimeout)
	}
}

// reap stops respawning and waits for every child to exit. Close has
// already sent each connected worker the shutdown frame; a child still
// running after closeGrace (one that never joined, or a wedged one) is
// interrupted, and killed after killDelay. Nil-safe.
func (s *spawner) reap() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.stop()
	s.mu.Unlock()
	signal := func(sig os.Signal) func() {
		return func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, pid := range det.SortedKeys(s.children) {
				_ = s.children[pid].cmd.Process.Signal(sig)
			}
		}
	}
	interrupt := time.AfterFunc(closeGrace, signal(os.Interrupt))
	kill := time.AfterFunc(killDelay, signal(os.Kill))
	s.wg.Wait()
	interrupt.Stop()
	kill.Stop()
}
