package dist

import (
	"net"
	"sync/atomic"
	"time"

	"remapd/internal/det"
)

// This file is the fleet's live connection state: what each connected
// worker's link carries (bytes, heartbeat round-trip, last-seen) and the
// Stats snapshot the /status "fleet" section serves. What the workers
// did — cells done, failed and requeued, stalls — is the harness
// timeline's to count (obs.SummarizeFleet), not the fleet's. All of it
// is harness-domain measurement — the scheduler never reads these
// numbers, so keeping them cannot change which worker runs which cell.

// countingConn wraps a worker connection to meter the bytes crossing it
// in both directions. The counters are read lock-free by Stats while the
// read and write paths are live.
type countingConn struct {
	net.Conn
	in  atomic.Int64
	out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// WorkerStats is one connected worker's row in the fleet status table.
type WorkerStats struct {
	Worker          string  `json:"worker"`
	Addr            string  `json:"addr,omitempty"`
	Proto           int     `json:"proto"`
	Slots           int     `json:"slots"`
	Inflight        int     `json:"inflight"`
	Draining        bool    `json:"draining,omitempty"`
	BytesIn         int64   `json:"bytes_in"`
	BytesOut        int64   `json:"bytes_out"`
	RTTMillis       float64 `json:"rtt_millis,omitempty"`
	LastSeenSeconds float64 `json:"last_seen_seconds"`
}

// FleetStats is the fleet section of the status document: one row per
// connected worker plus the pool's slot and in-flight totals.
type FleetStats struct {
	Workers  []WorkerStats `json:"workers"`
	Slots    int           `json:"slots"`
	Inflight int           `json:"inflight"`
}

// markSeen stamps the worker's last-received-frame clock.
func (w *fleetWorker) markSeen() {
	//lint:allow no-wall-clock harness-domain liveness bookkeeping measures the machine, never the simulation
	w.lastSeenNano.Store(time.Now().UnixNano())
}

// Stats snapshots the fleet: one row per connected worker, sorted by
// name via the deterministic worker iteration order.
func (f *Fleet) Stats() FleetStats {
	//lint:allow no-wall-clock harness-domain status snapshot measures the machine, never the simulation
	now := time.Now().UnixNano()
	var st FleetStats
	f.mu.Lock()
	workers := make([]*fleetWorker, 0, len(f.workers))
	rows := make([]WorkerStats, 0, len(f.workers))
	for _, name := range det.SortedKeys(f.workers) {
		w := f.workers[name]
		workers = append(workers, w)
		rows = append(rows, WorkerStats{
			Worker:   w.name,
			Addr:     w.addr,
			Proto:    ProtoVersion,
			Slots:    w.slots,
			Inflight: w.inflight,
			Draining: w.draining,
		})
		st.Slots += w.slots
		st.Inflight += w.inflight
	}
	f.mu.Unlock()
	// Atomic counters are read outside f.mu: they belong to the
	// connection, not the scheduler, and a torn row is impossible.
	for i, w := range workers {
		rows[i].BytesIn = w.counts.in.Load()
		rows[i].BytesOut = w.counts.out.Load()
		if rtt := w.rttNano.Load(); rtt > 0 {
			rows[i].RTTMillis = float64(rtt) / 1e6
		}
		if seen := w.lastSeenNano.Load(); seen > 0 {
			rows[i].LastSeenSeconds = float64(now-seen) / 1e9
		}
	}
	st.Workers = rows
	return st
}

// StatusSection adapts Stats to the obs status registry's snapshot
// signature.
func (f *Fleet) StatusSection() interface{} { return f.Stats() }
