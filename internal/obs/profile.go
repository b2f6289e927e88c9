package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// This file is the HARNESS domain: it profiles the experiment harness
// itself — wall time and allocation volume per report phase. A cell's
// wall time is its lifecycle span (span.go). Wall clock here is the
// point, not a leak: these numbers describe the machine, never the
// simulation, and nothing in this file feeds back into cell results. Every clock read carries a
// verified //lint:allow so the no-wall-clock rule still guards the
// simulation domain above.

// PhaseStat is one profiled harness phase (a report section, a figure).
type PhaseStat struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// ProfileData is the serialisable form of a Profile (harness.json).
type ProfileData struct {
	Phases []PhaseStat `json:"phases"`
}

// Profile collects harness wall-time/alloc statistics. It is shared by
// concurrent workers, so it is mutex-guarded; phases keep completion
// order.
type Profile struct {
	mu     sync.Mutex
	phases []PhaseStat
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// StartPhase begins timing a named harness phase and returns the stop
// function that records it. Alloc volume is the runtime's TotalAlloc
// delta — cumulative allocation, not live heap.
func (p *Profile) StartPhase(name string) func() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAlloc := ms.TotalAlloc
	//lint:allow no-wall-clock harness-domain phase profiling measures the machine, never the simulation
	start := time.Now()
	return func() {
		//lint:allow no-wall-clock harness-domain phase profiling measures the machine, never the simulation
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		p.mu.Lock()
		p.phases = append(p.phases, PhaseStat{Name: name, Seconds: secs, AllocBytes: ms.TotalAlloc - startAlloc})
		p.mu.Unlock()
	}
}

// Data snapshots the profile, phases in completion order.
func (p *Profile) Data() *ProfileData {
	p.mu.Lock()
	defer p.mu.Unlock()
	return &ProfileData{Phases: append([]PhaseStat(nil), p.phases...)}
}

// harnessFile names the profile payload inside a metrics directory.
const harnessFile = "harness.json"

// WriteJSON persists the profile as <dir>/harness.json.
func (p *Profile) WriteJSON(dir string) error {
	data, err := json.MarshalIndent(p.Data(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal harness profile: %w", err)
	}
	return os.WriteFile(harnessPath(dir), append(data, '\n'), 0o644)
}

// harnessPath returns the harness.json path for a metrics dir.
func harnessPath(dir string) string { return dir + string(os.PathSeparator) + harnessFile }

// ReadProfile loads a previously written harness.json; a missing file
// returns (nil, nil) — harness profiling is optional.
func ReadProfile(dir string) (*ProfileData, error) {
	data, err := os.ReadFile(harnessPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: read harness profile: %w", err)
	}
	var d ProfileData
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("obs: parse harness profile: %w", err)
	}
	return &d, nil
}
