package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"remapd/internal/dist"
	"remapd/internal/obs"
)

// defaultWatchEvery paces the -watch poll loop.
const defaultWatchEvery = 2 * time.Second

// statusDoc is the typed shape of a coordinator's GET /status document.
// Sections are optional: a run without -listen has no fleet table, one
// without spans has no aggregates.
type statusDoc struct {
	Grid  *obs.GridStatus    `json:"grid"`
	Fleet *dist.FleetStats   `json:"fleet"`
	Spans *obs.SpanAggregate `json:"spans"`
}

// watchMain is the -watch mode: poll a coordinator's -status-addr and
// redraw a single-screen live view until interrupted. Wall-clock use
// here is pure operator UX (a poll ticker and an HTTP timeout); the
// watcher only ever reads the run, never influences it.
func watchMain(addr string, every time.Duration) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	url := strings.TrimSuffix(addr, "/") + "/status"
	client := &http.Client{Timeout: 10 * time.Second}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	if every <= 0 {
		every = defaultWatchEvery
	}
	tick := time.NewTicker(every)
	defer tick.Stop()

	for {
		doc, err := fetchStatus(client, url)
		// Clear the screen and home the cursor between frames; errors
		// render in-frame so a coordinator restart shows as a blip, not
		// an exit.
		fmt.Print("\033[H\033[2J")
		fmt.Printf("watching %s (every %s, ctrl-c to stop)\n\n", url, every)
		if err != nil {
			fmt.Printf("status unavailable: %v\n", err)
		} else {
			renderStatus(doc)
		}
		select {
		case <-stop:
			fmt.Println()
			return nil
		case <-tick.C:
		}
	}
}

// fetchStatus GETs and decodes one status document.
func fetchStatus(client *http.Client, url string) (*statusDoc, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var doc statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode status: %w", err)
	}
	return &doc, nil
}

// renderStatus draws one frame of the live view.
func renderStatus(doc *statusDoc) {
	if doc.Grid != nil {
		g := doc.Grid
		pct := 0.0
		if g.Total > 0 {
			pct = 100 * float64(g.Done) / float64(g.Total)
		}
		fmt.Printf("grid: %d/%d cells (%.0f%%), %d failed, elapsed %s\n",
			g.Done, g.Total, pct, g.Failed, time.Duration(g.ElapsedSeconds*float64(time.Second)).Round(time.Second))
	}
	if doc.Fleet != nil {
		f := doc.Fleet
		fmt.Printf("fleet: %d worker(s), %d/%d slots busy; totals: %d done, %d requeued, %d failed, %d stall(s)\n",
			len(f.Workers), f.Inflight, f.Slots, f.Done, f.Requeued, f.Failed, f.Stalls)
		if len(f.Workers) > 0 {
			fmt.Printf("\n%-20s %6s %5s %6s %9s %9s %10s %9s %9s\n",
				"worker", "proto", "busy", "done", "requeued", "rtt-ms", "in-mb", "out-mb", "seen-ago")
			for _, w := range f.Workers {
				name := w.Worker
				if w.Draining {
					name += " (draining)"
				}
				fmt.Printf("%-20s %6d %2d/%-2d %6d %9d %10.1f %9.2f %9.2f %8.1fs\n",
					name, w.Proto, w.Inflight, w.Slots, w.Done, w.Requeued,
					w.RTTMillis, float64(w.BytesIn)/(1<<20), float64(w.BytesOut)/(1<<20), w.LastSeenSeconds)
			}
		}
	}
	if doc.Spans != nil && doc.Spans.Cells > 0 {
		s := doc.Spans
		fmt.Printf("\nspans: %d cells, %d attempts (%d requeued); queue %.1fs, wire %.1fs, run %.1fs\n",
			s.Cells, s.Attempts, s.Requeues, s.QueueSeconds, s.WireSeconds, s.RunSeconds)
		if len(s.Slowest) > 0 {
			fmt.Printf("\nslowest cells:\n")
			for _, sp := range s.Slowest {
				fmt.Printf("  %-45s %6.1fs (%d attempt(s))\n", sp.Cell, sp.SlotSeconds(), len(sp.Attempts))
			}
		}
	}
}
