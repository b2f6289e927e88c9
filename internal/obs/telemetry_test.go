package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFleetTraceRoundTrip: events written through a file trace must come
// back typed, ordered, and strictly validated.
func TestFleetTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	tr, err := NewFleetTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Emit(FleetEvent{Kind: FleetJoin, Worker: "fw1/pid9", Addr: "127.0.0.1:1", Proto: 3, Slots: 2, Workers: 1})
	tr.Emit(FleetEvent{Kind: FleetRequeue, Worker: "fw1/pid9", Cell: "cnn-s/remap-d/seed1", Attempt: 1, Cause: "fw1/pid9 died mid-cell"})
	tr.Emit(FleetEvent{Kind: FleetDone, Worker: "fw1/pid9", Cell: "cnn-s/remap-d/seed1", Attempt: 2, Seconds: 1.5})
	tr.Emit(FleetEvent{Kind: FleetDrop, Worker: "fw1/pid9", Workers: 0, Cause: "connection closed"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	events, err := DecodeFleetEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("decoded %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if events[1].Kind != FleetRequeue || events[1].Attempt != 1 {
		t.Errorf("requeue event mangled: %+v", events[1])
	}
	if events[2].Seconds != 1.5 {
		t.Errorf("cell-done seconds = %v, want 1.5", events[2].Seconds)
	}

	// The in-memory ring must agree with the file.
	if mem := tr.Events(); len(mem) != 4 || mem[3].Kind != FleetDrop {
		t.Errorf("memory trace disagrees with file: %+v", mem)
	}
}

// TestFleetTraceStrictDecode: unknown kinds and unknown fields are schema
// drift, and bytes after a line's JSON value are corruption; each is an
// error, not a skipped line or a silently dropped event.
func TestFleetTraceStrictDecode(t *testing.T) {
	const join = `{"seq":1,"elapsed_seconds":0,"kind":"join"}`
	for _, tc := range []struct {
		name, line, want string // want: substring of the error
	}{
		{"unknown kind", `{"seq":1,"elapsed_seconds":0,"kind":"teleport"}`, "unknown event kind"},
		{"unknown field", `{"seq":1,"elapsed_seconds":0,"kind":"join","surprise":true}`, "unknown field"},
		{"malformed line", `not json`, "invalid character"},
		{"trailing garbage", join + ` garbage`, "trailing data"},
		{"two values on one line", join + `{"seq":2,"elapsed_seconds":0,"kind":"leave"}`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := DecodeFleetEvents(strings.NewReader(tc.line + "\n"))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeFleetEvents(%s) = (%+v, %v), want an error containing %q", tc.line, events, err, tc.want)
			}
		})
	}
}

// encodeFleetEvents renders events as the JSONL a FleetTrace file holds.
func encodeFleetEvents(t *testing.T, events []FleetEvent) []byte {
	t.Helper()
	var out []byte
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("encode accepted event: %v", err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzDecodeFleetEvents: fleet traces are read back from disk, so
// DecodeFleetEvents must survive any input — no panic — and whatever it
// accepts must reach a fixed point: re-encoding and decoding again gives
// the same bytes.
func FuzzDecodeFleetEvents(f *testing.F) {
	f.Add([]byte(`{"seq":1,"elapsed_seconds":0.5,"kind":"join","worker":"fw1/pid9","addr":"127.0.0.1:1","proto":3,"slots":2,"workers":1}` + "\n" +
		`{"seq":2,"elapsed_seconds":1.25,"kind":"requeue","worker":"fw1/pid9","cell":"cnn-s/remap-d/seed1","attempt":1,"cause":"died"}` + "\n"))
	f.Add([]byte(`{"seq":3,"elapsed_seconds":2,"kind":"cell-done","cell":"c","attempt":2,"seconds":1.5}` + "\n\n"))
	f.Add([]byte(`{"seq":1,"elapsed_seconds":0,"kind":"join"} garbage`))
	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := DecodeFleetEvents(bytes.NewReader(in))
		if err != nil {
			return
		}
		first := encodeFleetEvents(t, events)
		again, err := DecodeFleetEvents(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-decode of %q: %v", first, err)
		}
		if second := encodeFleetEvents(t, again); !bytes.Equal(first, second) {
			t.Fatalf("not a fixed point:\n%s\n%s", first, second)
		}
	})
}

// TestReadSpansStrict: spans.json is read back by remapd-metrics, so an
// unknown field or trailing bytes are an error, not a silent skip.
func TestReadSpansStrict(t *testing.T) {
	for name, payload := range map[string]string{
		"unknown span field":    `[{"cell":"a","outcome":"ok","queue_seconds":0,"total_seconds":1,"attempts":[],"extra":1}]`,
		"unknown attempt field": `[{"cell":"a","outcome":"ok","queue_seconds":0,"total_seconds":1,"attempts":[{"attempt":1,"bogus":true}]}]`,
		"trailing value":        `[] []`,
		"trailing garbage":      `[{"cell":"a"}] garbage`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, spansFile), []byte(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		if spans, err := ReadSpans(dir); err == nil {
			t.Errorf("%s: ReadSpans accepted %s as %+v", name, payload, spans)
		}
	}
}

// FuzzReadSpans: the bytes ReadSpans decodes must never panic it, and
// whatever it accepts must reach a re-encode fixed point.
func FuzzReadSpans(f *testing.F) {
	rec := NewSpanRecorder()
	span := rec.Begin("cnn-s/remap-d/seed1")
	span.Dispatch("fw1/pid9")
	span.EndAttempt(true)
	span.Dispatch("fw2/pid10")
	span.RunSegment(0.25, false)
	span.EndAttempt(false)
	span.Finish("ok")
	seed, err := json.MarshalIndent(rec.Spans(), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"cell":"a","outcome":"failed","queue_seconds":1e-3,"total_seconds":2,"attempts":null}]`))
	f.Fuzz(func(t *testing.T, in []byte) {
		spans, err := decodeSpans(in)
		if err != nil {
			return
		}
		first, err := json.Marshal(spans)
		if err != nil {
			t.Fatalf("encode accepted spans: %v", err)
		}
		again, err := decodeSpans(first)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("not a fixed point:\n%s\n%s", first, second)
		}
	})
}

// TestFleetTraceNilSafe: a nil trace must absorb every call.
func TestFleetTraceNilSafe(t *testing.T) {
	var tr *FleetTrace
	tr.Emit(FleetEvent{Kind: FleetJoin})
	if ev := tr.Events(); ev != nil {
		t.Errorf("nil trace returned events: %+v", ev)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil trace Close: %v", err)
	}
}

// TestSpanAccounting walks one cell through a requeued lifecycle: the
// first attempt dies without a run segment (the telemetry frame never
// arrived), the second succeeds with one — exactly the shape a
// chaos-severed fleet cell produces.
func TestSpanAccounting(t *testing.T) {
	rec := NewSpanRecorder()
	span := rec.Begin("cnn-s/remap-d/seed1")
	span.Schedule()

	span.Dispatch("fw1/pid9")
	// No RunSegment: the worker died before reporting.
	span.EndAttempt(true)

	span.Dispatch("fw2/pid10")
	span.RunSegment(0.25, false)
	span.EndAttempt(false)
	span.Finish("ok")

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Cell != "cnn-s/remap-d/seed1" || sp.Outcome != "ok" {
		t.Fatalf("span header mangled: %+v", sp)
	}
	if len(sp.Attempts) != 2 {
		t.Fatalf("span has %d attempts, want 2", len(sp.Attempts))
	}
	first, second := sp.Attempts[0], sp.Attempts[1]
	if !first.Failed || first.RunSeconds != 0 || first.Worker != "fw1/pid9" || first.Attempt != 1 {
		t.Errorf("first attempt should be failed with no run segment: %+v", first)
	}
	if second.Failed || second.RunSeconds != 0.25 || second.Worker != "fw2/pid10" || second.Attempt != 2 {
		t.Errorf("second attempt should carry the reported run segment: %+v", second)
	}
	if second.WireSeconds < 0 {
		t.Errorf("wire time went negative: %+v", second)
	}

	agg := rec.Aggregate()
	if agg.Cells != 1 || agg.Attempts != 2 || agg.Requeues != 1 {
		t.Errorf("aggregate = %+v, want 1 cell / 2 attempts / 1 requeue", agg)
	}

	// Persistence round-trip.
	dir := t.TempDir()
	if err := rec.WriteJSON(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSpans(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || len(loaded[0].Attempts) != 2 {
		t.Fatalf("spans.json round-trip lost data: %+v", loaded)
	}
	if missing, err := ReadSpans(t.TempDir()); err != nil || missing != nil {
		t.Fatalf("missing spans.json should read as (nil, nil), got (%v, %v)", missing, err)
	}
}

// TestSlowestSpans: cells rank by the time they held a slot (total less
// queue), so a cell that merely waited long for a worker does not top
// the table; ties fall back to the cell key.
func TestSlowestSpans(t *testing.T) {
	spans := []CellSpanData{
		{Cell: "queued", QueueSeconds: 4, TotalSeconds: 5},
		{Cell: "slow", QueueSeconds: 0, TotalSeconds: 3},
		{Cell: "tie-b", QueueSeconds: 1, TotalSeconds: 3},
		{Cell: "tie-a", QueueSeconds: 0, TotalSeconds: 2},
	}
	var got []string
	for _, sp := range SlowestSpans(spans, 3) {
		got = append(got, sp.Cell)
	}
	if want := "slow tie-a tie-b"; strings.Join(got, " ") != want {
		t.Fatalf("SlowestSpans = %v, want %s", got, want)
	}
}

// TestSpanNilSafe: a nil recorder yields nil spans whose methods all
// no-op — the guarantee that lets executors mark edges unconditionally.
func TestSpanNilSafe(t *testing.T) {
	var rec *SpanRecorder
	span := rec.Begin("x")
	if span != nil {
		t.Fatal("nil recorder returned a non-nil span")
	}
	span.Schedule()
	span.Dispatch("w")
	span.RunSegment(1, false)
	span.EndAttempt(false)
	span.Finish("ok")
	if agg := rec.Aggregate(); agg.Cells != 0 {
		t.Errorf("nil recorder aggregate = %+v", agg)
	}
}

// TestSpanConcurrentFinish: spans finishing from many goroutines must
// land without races (the -race build is the real assertion).
func TestSpanConcurrentFinish(t *testing.T) {
	rec := NewSpanRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			span := rec.Begin("cell" + string(rune('a'+i)))
			span.Dispatch("w")
			span.RunSegment(0.01, false)
			span.EndAttempt(false)
			span.Finish("ok")
		}(i)
	}
	wg.Wait()
	if got := len(rec.Spans()); got != 16 {
		t.Fatalf("recorded %d spans, want 16", got)
	}
}

// TestStatusServer: GET /status on a live server must return the
// registered sections as JSON.
func TestStatusServer(t *testing.T) {
	st := NewStatus()
	st.Register("grid", func() interface{} {
		return GridStatus{Total: 6, Done: 2, Failed: 0, ElapsedSeconds: 1.25}
	})
	addr, err := StartStatusServer("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status: %s", resp.Status)
	}
	var doc struct {
		Grid *GridStatus `json:"grid"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Grid == nil || doc.Grid.Total != 6 || doc.Grid.Done != 2 {
		t.Fatalf("status document mangled: %+v", doc.Grid)
	}
	// The same address is the process's one harness HTTP surface: pprof
	// and expvar answer beside /status.
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
	}

	// Re-registration replaces; nil registry absorbs.
	st.Register("grid", func() interface{} { return GridStatus{Total: 7} })
	snap := st.Snapshot()
	if g, ok := snap["grid"].(GridStatus); !ok || g.Total != 7 {
		t.Fatalf("re-registered section not visible: %+v", snap["grid"])
	}
	var nilStatus *Status
	nilStatus.Register("x", func() interface{} { return 1 })
	if got := nilStatus.Snapshot(); len(got) != 0 {
		t.Errorf("nil status snapshot = %+v", got)
	}
}

// TestSummarizeFleet rolls a synthetic trace up and checks attribution.
func TestSummarizeFleet(t *testing.T) {
	events := []FleetEvent{
		{Seq: 1, Kind: FleetJoin, Worker: "fw1", Workers: 1},
		{Seq: 2, Kind: FleetJoin, Worker: "fw2", Workers: 2},
		{Seq: 3, Kind: FleetRequeue, Worker: "fw1", Cell: "a", Attempt: 1, Cause: "fw1 died mid-cell"},
		{Seq: 4, Kind: FleetDrop, Worker: "fw1", Workers: 1, Cause: "connection closed"},
		{Seq: 5, Kind: FleetDone, Worker: "fw2", Cell: "a", Attempt: 2, Seconds: 2},
		{Seq: 6, Kind: FleetDone, Worker: "fw2", Cell: "b", Attempt: 1, Seconds: 1},
		{Seq: 7, Kind: FleetStall, Workers: 0},
	}
	sum := SummarizeFleet(events)
	if sum.Joins != 2 || sum.Drops != 1 || sum.Stalls != 1 || sum.Requeues != 1 || sum.CellsDone != 2 {
		t.Fatalf("summary counts wrong: %+v", sum)
	}
	if sum.RequeueCauses["fw1 died mid-cell"] != 1 {
		t.Errorf("requeue cause lost: %+v", sum.RequeueCauses)
	}
	if len(sum.Workers) != 2 {
		t.Fatalf("worker rows = %+v, want 2", sum.Workers)
	}
	// Sorted by name: fw1 first (1 requeue, 0 done), fw2 (2 done, 3s busy).
	if w := sum.Workers[0]; w.Worker != "fw1" || w.Requeues != 1 || w.Done != 0 {
		t.Errorf("fw1 row: %+v", w)
	}
	if w := sum.Workers[1]; w.Worker != "fw2" || w.Done != 2 || w.BusySeconds != 3 {
		t.Errorf("fw2 row: %+v", w)
	}
	if len(sum.SlowestCells) != 2 || sum.SlowestCells[0].Cell != "a" {
		t.Errorf("slowest cells: %+v", sum.SlowestCells)
	}
}
