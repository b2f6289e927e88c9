// Package trace is the benchmark's traced run: an in-memory span recorder
// plus wrappers that time the three interface boundaries the benchmark can
// reach from outside the program — every top-level nn.Layer of a network,
// the nn.Fabric the layers (and the optimizer) call into, and the
// remap.Policy. The wrappers forward every call unchanged, so a wrapped
// run computes exactly what an unwrapped one does (trace_test.go pins
// this); they only add two clock reads per call.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one finished span as written to the JSONL file. Times are
// microseconds since the tracer was created; Parent 0 marks a root span.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	SelfUS float64 `json:"self_us"`
}

// Agg is the roll-up of every finished span of one name.
type Agg struct {
	Calls int
	Total float64 // seconds
	Self  float64 // seconds: Total minus the time covered by child spans
}

type open struct {
	id, parent int
	name       string
	start      time.Time
	child      time.Duration
}

// Tracer records nested spans. Begin/End nest on one stack, so they must
// come from one goroutine at a time; every benchmark path that reaches
// the wrappers is serialized (the trainer loop, or serve.Server's mutex).
// Record adds finished root spans from any goroutine.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	nextID int
	stack  []open
	spans  []Span
	agg    map[string]*Agg
	counts map[string]float64
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{origin: time.Now(), agg: map[string]*Agg{}, counts: map[string]float64{}}
}

// Begin opens a span nested in the innermost open span.
func (t *Tracer) Begin(name string) {
	now := time.Now()
	t.mu.Lock()
	t.nextID++
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, open{id: t.nextID, parent: parent, name: name, start: now})
	t.mu.Unlock()
}

// End closes the innermost open span.
func (t *Tracer) End() { t.EndAs("") }

// EndAs closes the innermost open span under a name decided only once the
// traced call has returned ("" keeps the name Begin gave it).
func (t *Tracer) EndAs(name string) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	if n == 0 {
		panic("trace: End without Begin")
	}
	o := t.stack[n-1]
	t.stack = t.stack[:n-1]
	if name == "" {
		name = o.name
	}
	dur := now.Sub(o.start)
	if n > 1 {
		t.stack[n-2].child += dur
	}
	t.finish(Span{ID: o.id, Parent: o.parent, Name: name}, o.start, now, dur-o.child)
}

// Record adds a finished root span measured elsewhere (e.g. on an HTTP
// handler goroutine, outside the Begin/End stack).
func (t *Tracer) Record(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.finish(Span{ID: t.nextID, Name: name}, start, end, end.Sub(start))
}

func (t *Tracer) finish(s Span, start, end time.Time, self time.Duration) {
	s.Start = float64(start.Sub(t.origin).Nanoseconds()) / 1e3
	s.End = float64(end.Sub(t.origin).Nanoseconds()) / 1e3
	s.SelfUS = float64(self.Nanoseconds()) / 1e3
	t.spans = append(t.spans, s)
	a := t.agg[s.Name]
	if a == nil {
		a = &Agg{}
		t.agg[s.Name] = a
	}
	a.Calls++
	a.Total += end.Sub(start).Seconds()
	a.Self += self.Seconds()
}

// Add increments a named counter (counts reported at a layer boundary).
func (t *Tracer) Add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Agg returns the roll-up of the finished spans named name.
func (t *Tracer) Agg(name string) Agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return *a
	}
	return Agg{}
}

// Count returns a counter's value.
func (t *Tracer) Count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// AppendJSONL appends the finished spans to path, one JSON object per
// line, each tagged with unit (the measured unit of work it belongs to).
func (t *Tracer) AppendJSONL(path string, unit int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(struct {
			Unit int `json:"unit"`
			Span
		}{unit, s}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}
