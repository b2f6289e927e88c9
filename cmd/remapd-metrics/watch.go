package main

import (
	"encoding/json"
	"fmt"
	"io"
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
// Sections are optional: a run without -dist or -listen has no fleet
// table, a tool that builds no timeline no timeline summary.
type statusDoc struct {
	Timeline *obs.FleetSummary `json:"timeline"`
	Fleet    *dist.FleetStats  `json:"fleet"`
}

// watchMain is the -watch mode: poll a coordinator's -status-addr and
// redraw a single-screen live view until interrupted. Wall-clock use
// here is pure operator UX (a poll ticker and an HTTP timeout); the
// watcher only ever reads the run, never influences it.
func watchMain(addr string, every time.Duration, top int) error {
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
			renderStatus(os.Stdout, doc, top)
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

// renderStatus draws one frame of the live view: the timeline summary's
// counts, each live fleet row joined to its worker's counts by name, and
// the top costliest phases and slowest cells.
func renderStatus(w io.Writer, doc *statusDoc, top int) {
	var sum obs.FleetSummary
	if doc.Timeline != nil {
		sum = *doc.Timeline
		pct := 0.0
		if sum.Cells > 0 {
			pct = 100 * float64(sum.CellsDone) / float64(sum.Cells)
		}
		fmt.Fprintf(w, "timeline: %d/%d cells (%.0f%%), %d failed, %d requeued, elapsed %s; queue %.1fs, wire %.1fs, run %.1fs\n",
			sum.CellsDone, sum.Cells, pct, sum.CellsFailed, sum.Requeues,
			time.Duration(sum.ElapsedSeconds*float64(time.Second)).Round(time.Second),
			sum.QueueSeconds, sum.WireSeconds, sum.RunSeconds)
	}
	if f := doc.Fleet; f != nil {
		fmt.Fprintf(w, "fleet: %d worker(s), %d/%d slots busy; joins %d, drops %d, stall(s) %d\n",
			len(f.Workers), f.Inflight, f.Slots, sum.Joins, sum.Drops, sum.Stalls)
		counts := map[string]obs.FleetWorkerSummary{}
		for _, ws := range sum.Workers {
			counts[ws.Worker] = ws
		}
		if len(f.Workers) > 0 {
			fmt.Fprintf(w, "\n%-20s %6s %5s %6s %6s %9s %9s %9s %9s %9s\n",
				"worker", "proto", "busy", "done", "failed", "requeued", "rtt-ms", "in-mb", "out-mb", "seen-ago")
			for _, ws := range f.Workers {
				name := ws.Worker
				if ws.Draining {
					name += " (draining)"
				}
				c := counts[ws.Worker]
				fmt.Fprintf(w, "%-20s %6d %2d/%-2d %6d %6d %9d %9.2f %9.2f %9.2f %8.1fs\n",
					name, ws.Proto, ws.Inflight, ws.Slots, c.Done, c.Failed, c.Requeues,
					ws.RTTMillis, float64(ws.BytesIn)/(1<<20), float64(ws.BytesOut)/(1<<20), ws.LastSeenSeconds)
			}
		}
	}
	printPhases(w, sum.Phases, top)
	printSlowest(w, sum.Slowest)
}
