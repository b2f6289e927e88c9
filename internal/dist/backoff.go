package dist

import (
	"context"
	"time"
)

// Backoff schedules: all retry waits in this package — cell requeues,
// worker respawns and worker redials — follow the same jitterless
// doubling series base, 2·base, 4·base, … capped at max. Deterministic
// by design: the schedule depends only on the attempt number, never on
// the wall clock or a random source, so two runs of the same failing
// grid back off identically and test transcripts are reproducible.
const (
	// requeueBase/requeueMax pace cell requeue attempts and the respawn
	// of a spawned worker that exited. Without a wait, a crash-looping
	// worker binary is relaunched (or a flapping fleet worker re-offered
	// the cell) as fast as it can die.
	requeueBase = 250 * time.Millisecond
	requeueMax  = 2 * time.Second

	// redialBase/redialMax pace a fleet worker's reconnection attempts
	// to an unreachable coordinator.
	redialBase = 500 * time.Millisecond
	redialMax  = 30 * time.Second
)

// Backoff returns the wait before retry attempt+1 after `attempt` failed
// tries: base doubled per failure, capped at max. attempt <= 1 returns
// base.
func Backoff(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// sleepCtx waits d, returning early with the context's error if it is
// cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
