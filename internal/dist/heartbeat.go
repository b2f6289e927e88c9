package dist

import (
	"fmt"
	"time"
)

// monitor is one worker's liveness clock, running for the life of its
// connection. Each tick charges one missed interval and sends a
// heartbeat probe; any frame the read loop receives — heartbeat echo,
// log line, result — clears the charge. A worker silent for more than
// HeartbeatMisses consecutive intervals is declared dead and dropped,
// which requeues its in-flight cells onto survivors.
//
// The probe is answered from the worker's read loop, never from a cell
// goroutine, so a worker saturating all its slots with training still
// echoes on time; conversely a partitioned or wedged worker accumulates
// misses even though its TCP connection looks healthy, which is exactly
// the failure a closed-connection check alone could never see.
func (f *Fleet) monitor(w *fleetWorker) {
	every := f.opts.HeartbeatEvery
	if every <= 0 {
		every = DefaultHeartbeatEvery
	}
	misses := f.opts.HeartbeatMisses
	if misses <= 0 {
		misses = DefaultHeartbeatMisses
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.gone:
			return
		case <-t.C:
			if int(w.missed.Add(1)) > misses {
				f.drop(w, fmt.Errorf("no frame for %d heartbeat intervals (deadline %s)", misses, time.Duration(misses+1)*every))
				return
			}
			id := f.nextID.Add(1)
			// Stamp the probe before sending so the echo's round trip is
			// never negative; only the newest probe's echo is timed.
			w.probeID.Store(id)
			//lint:allow no-wall-clock harness-domain heartbeat RTT measures the machine, never the simulation
			w.probeSentNano.Store(time.Now().UnixNano())
			if err := w.send(Request{Type: "heartbeat", ID: id}); err != nil {
				f.drop(w, fmt.Errorf("heartbeat write: %w", err))
				return
			}
		}
	}
}
