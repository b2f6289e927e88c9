package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"remapd/internal/det"
)

// This file is the HARNESS domain: the live /status endpoint. A Status
// is a registry of named sections — "timeline", the SummarizeFleet
// roll-up of the run's harness timeline; "fleet", the dist fleet's live
// connection rows; "serve" from remapd-serve — each a function
// returning a JSON-marshalable snapshot. GET /status assembles them into
// one document, so an operator (or `remapd-metrics -watch`) can see a
// multi-machine run's progress without tailing stdout.
// Everything served is harness-side bookkeeping; serving it cannot
// perturb simulation results.

// Status is a concurrent registry of status sections. The zero value is
// unusable; call NewStatus. All methods are safe on a nil receiver so
// producers can publish unconditionally.
type Status struct {
	mu       sync.Mutex
	sections map[string]func() interface{}
}

// NewStatus returns an empty registry.
func NewStatus() *Status {
	return &Status{sections: map[string]func() interface{}{}}
}

// Register installs (or replaces) the named section. snapshot is called
// on every GET, so it must be cheap and concurrency-safe. Nil-safe.
func (s *Status) Register(name string, snapshot func() interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sections[name] = snapshot
	s.mu.Unlock()
}

// Snapshot assembles every section into one map. Nil-safe (empty map).
func (s *Status) Snapshot() map[string]interface{} {
	out := map[string]interface{}{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	names := det.SortedKeys(s.sections)
	fns := make([]func() interface{}, 0, len(names))
	for _, name := range names {
		fns = append(fns, s.sections[name])
	}
	s.mu.Unlock()
	// Section snapshots run outside the registry lock: a section is free
	// to take its own locks (the fleet does) without ordering concerns.
	for i, name := range names {
		out[name] = fns[i]()
	}
	return out
}

// ServeHTTP renders the snapshot as indented JSON.
func (s *Status) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// encoding/json marshals map keys sorted, so the document is stable.
	_ = enc.Encode(snap)
}

// publishExpvar mirrors the status snapshot into expvar under "remapd",
// so generic expvar tooling sees the same document /status serves.
// expvar panics on duplicate names and has no unpublish, so the first
// Status wins for the process lifetime — fine for the cmd binaries,
// which create exactly one.
var publishExpvar sync.Once

// StartStatusServer is the harness domain's one HTTP surface: it serves
// /status for st, net/http/pprof (CPU/heap/goroutine profiles) and
// expvar (cmdline, memstats and the status document) on addr, and
// returns the bound address. It is best-effort and runs for the process
// lifetime; nothing it serves touches simulation state, so leaving it on
// cannot perturb results.
func StartStatusServer(addr string, st *Status) (string, error) {
	publishExpvar.Do(func() {
		expvar.Publish("remapd", expvar.Func(func() interface{} { return st.Snapshot() }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: status server listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/status", st)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go func() {
		// Serve returns when the listener dies at process exit; the
		// server is best-effort and must never take the run down with it.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}
