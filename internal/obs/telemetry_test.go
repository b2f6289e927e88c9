package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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
	tr.Emit(FleetEvent{Kind: FleetRun, Cell: "cnn-s/remap-d/seed1", Seconds: 1.5})
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
		t.Errorf("run seconds = %v, want 1.5", events[2].Seconds)
	}

	// The in-memory record must agree with the file.
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

// FuzzDecodeFleetEvents: timelines are read back from disk, so
// DecodeFleetEvents must survive any input — no panic — and whatever it
// accepts must reach a fixed point (re-encoding and decoding again gives
// the same bytes) and fold into spans without panicking.
func FuzzDecodeFleetEvents(f *testing.F) {
	f.Add([]byte(`{"seq":1,"elapsed_seconds":0.5,"kind":"join","worker":"fw1/pid9","addr":"127.0.0.1:1","proto":3,"slots":2,"workers":1}` + "\n" +
		`{"seq":2,"elapsed_seconds":1.25,"kind":"requeue","worker":"fw1/pid9","cell":"cnn-s/remap-d/seed1","attempt":1,"cause":"died"}` + "\n"))
	f.Add([]byte(`{"seq":3,"elapsed_seconds":2,"kind":"cell-done","cell":"c","attempt":2,"seconds":1.5}` + "\n\n"))
	f.Add([]byte(`{"seq":1,"elapsed_seconds":0,"kind":"join"} garbage`))
	// Every cell lifecycle kind, over two cells: a requeued success and a
	// failure, then a resubmitted key cancelled mid-attempt.
	f.Add([]byte(`{"seq":1,"elapsed_seconds":0,"kind":"submit","cell":"a"}
{"seq":2,"elapsed_seconds":0,"kind":"submit","cell":"b"}
{"seq":3,"elapsed_seconds":0.25,"kind":"schedule","cell":"a"}
{"seq":4,"elapsed_seconds":0.25,"kind":"dispatch","worker":"fw1/pid9","cell":"a","attempt":1}
{"seq":5,"elapsed_seconds":0.5,"kind":"schedule","cell":"b"}
{"seq":6,"elapsed_seconds":0.5,"kind":"dispatch","worker":"fw2/pid10","cell":"b","attempt":1}
{"seq":7,"elapsed_seconds":1,"kind":"requeue","worker":"fw1/pid9","cell":"a","attempt":1,"cause":"died"}
{"seq":8,"elapsed_seconds":1.25,"kind":"run","cell":"b","seconds":0.5}
{"seq":9,"elapsed_seconds":1.25,"kind":"cell-failed","cell":"b","cause":"boom"}
{"seq":10,"elapsed_seconds":1.5,"kind":"dispatch","worker":"fw2/pid10","cell":"a","attempt":2}
{"seq":11,"elapsed_seconds":2,"kind":"run","cell":"a","seconds":0.25}
{"seq":12,"elapsed_seconds":2,"kind":"cell-done","worker":"fw2/pid10","cell":"a","attempt":2}
{"seq":13,"elapsed_seconds":3,"kind":"submit","cell":"a"}
{"seq":14,"elapsed_seconds":3,"kind":"schedule","cell":"a"}
{"seq":15,"elapsed_seconds":3,"kind":"dispatch","cell":"a","attempt":1}
{"seq":16,"elapsed_seconds":4,"kind":"cancel","cell":"a"}
`))
	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := DecodeFleetEvents(bytes.NewReader(in))
		if err != nil {
			return
		}
		for _, sp := range FoldSpans(events) {
			if sp.Outcome == "" {
				t.Fatalf("folded span without an outcome: %+v", sp)
			}
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

// TestSpanAccounting folds hand-written timelines; every expected value
// is worked out by hand from the events' elapsed_seconds (dyadic, so the
// arithmetic is exact).
func TestSpanAccounting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []FleetEvent
		want   []CellSpanData
	}{
		{
			name: "queued cell",
			events: []FleetEvent{
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 2, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 2.5, Kind: FleetDispatch, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 3.5, Kind: FleetRun, Cell: "a", Seconds: 0.75},
				{ElapsedSeconds: 3.75, Kind: FleetDone, Cell: "a", Attempt: 1},
			},
			want: []CellSpanData{{Cell: "a", Outcome: "ok", QueueSeconds: 2, TotalSeconds: 3.75, Attempts: []SpanAttempt{
				{Attempt: 1, DispatchSeconds: 2.5, RunSeconds: 0.75, WireSeconds: 0.5},
			}}},
		},
		{
			// The worker ran the cell but its result was a worker-side
			// cancellation: the run is reported, then the cell requeues.
			name: "requeue then second attempt",
			events: []FleetEvent{
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 0.25, Kind: FleetJoin, Worker: "fw2/pid10", Workers: 2},
				{ElapsedSeconds: 0.5, Kind: FleetDispatch, Cell: "a", Worker: "fw1/pid9", Attempt: 1},
				{ElapsedSeconds: 1.5, Kind: FleetRun, Cell: "a", Seconds: 0.5},
				{ElapsedSeconds: 1.75, Kind: FleetRequeue, Cell: "a", Worker: "fw1/pid9", Attempt: 1, Cause: "cancelled worker-side"},
				{ElapsedSeconds: 2.25, Kind: FleetDispatch, Cell: "a", Worker: "fw2/pid10", Attempt: 2},
				{ElapsedSeconds: 3.25, Kind: FleetRun, Cell: "a", Seconds: 0.75},
				{ElapsedSeconds: 3.5, Kind: FleetDone, Cell: "a", Worker: "fw2/pid10", Attempt: 2},
			},
			want: []CellSpanData{{Cell: "a", Outcome: "ok", QueueSeconds: 0.5, TotalSeconds: 3.5, Attempts: []SpanAttempt{
				{Attempt: 1, Worker: "fw1/pid9", DispatchSeconds: 0.5, RunSeconds: 0.5, WireSeconds: 0.75, Failed: true},
				{Attempt: 2, Worker: "fw2/pid10", DispatchSeconds: 2.25, RunSeconds: 0.75, WireSeconds: 0.5},
			}}},
		},
		{
			// The link was cut before the result reply: no run event.
			name: "severed attempt",
			events: []FleetEvent{
				{ElapsedSeconds: 1, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 1, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 1.25, Kind: FleetDispatch, Cell: "a", Worker: "fw1/pid9", Attempt: 1},
				{ElapsedSeconds: 2.25, Kind: FleetRequeue, Cell: "a", Worker: "fw1/pid9", Attempt: 1, Cause: "fw1/pid9 died mid-cell"},
				{ElapsedSeconds: 2.5, Kind: FleetDispatch, Cell: "a", Worker: "fw2/pid10", Attempt: 2},
				{ElapsedSeconds: 3.5, Kind: FleetRun, Cell: "a", Seconds: 0.5},
				{ElapsedSeconds: 3.75, Kind: FleetDone, Cell: "a", Worker: "fw2/pid10", Attempt: 2},
			},
			want: []CellSpanData{{Cell: "a", Outcome: "ok", QueueSeconds: 0, TotalSeconds: 2.75, Attempts: []SpanAttempt{
				{Attempt: 1, Worker: "fw1/pid9", DispatchSeconds: 0.25, RunSeconds: 0, WireSeconds: 1, Failed: true},
				{Attempt: 2, Worker: "fw2/pid10", DispatchSeconds: 1.5, RunSeconds: 0.5, WireSeconds: 0.75},
			}}},
		},
		{
			// The worker's clock reports more run time than the
			// coordinator saw pass: wire time clamps at zero.
			name: "cell-failed",
			events: []FleetEvent{
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 0.25, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 0.5, Kind: FleetDispatch, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 1.25, Kind: FleetRun, Cell: "a", Seconds: 1},
				{ElapsedSeconds: 1.25, Kind: FleetFailed, Cell: "a", Cause: "cell a: boom"},
			},
			want: []CellSpanData{{Cell: "a", Outcome: "failed", QueueSeconds: 0.25, TotalSeconds: 1.25, Attempts: []SpanAttempt{
				{Attempt: 1, DispatchSeconds: 0.5, RunSeconds: 1, WireSeconds: 0, Failed: true},
			}}},
		},
		{
			name: "cancel mid-attempt",
			events: []FleetEvent{
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 0.5, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 0.5, Kind: FleetDispatch, Cell: "a", Worker: "fw1/pid9", Attempt: 1},
				{ElapsedSeconds: 2, Kind: FleetCancel, Cell: "a"},
			},
			want: []CellSpanData{{Cell: "a", Outcome: "cancelled", QueueSeconds: 0.5, TotalSeconds: 2, Attempts: []SpanAttempt{
				{Attempt: 1, Worker: "fw1/pid9", DispatchSeconds: 0.5, RunSeconds: 0, WireSeconds: 1.5, Failed: true},
			}}},
		},
		{
			// b finishes first; spans still come out sorted by key.
			name: "interleaved cells",
			events: []FleetEvent{
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "b"},
				{ElapsedSeconds: 0.25, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 0.25, Kind: FleetDispatch, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 0.5, Kind: FleetSchedule, Cell: "b"},
				{ElapsedSeconds: 0.5, Kind: FleetDispatch, Cell: "b", Attempt: 1},
				{ElapsedSeconds: 1, Kind: FleetRun, Cell: "b", Seconds: 0.25},
				{ElapsedSeconds: 1.25, Kind: FleetDone, Cell: "b", Attempt: 1},
				{ElapsedSeconds: 1.5, Kind: FleetRun, Cell: "a", Seconds: 1},
				{ElapsedSeconds: 1.75, Kind: FleetDone, Cell: "a", Attempt: 1},
			},
			want: []CellSpanData{
				{Cell: "a", Outcome: "ok", QueueSeconds: 0.25, TotalSeconds: 1.75, Attempts: []SpanAttempt{
					{Attempt: 1, DispatchSeconds: 0.25, RunSeconds: 1, WireSeconds: 0.5},
				}},
				{Cell: "b", Outcome: "ok", QueueSeconds: 0.5, TotalSeconds: 1.25, Attempts: []SpanAttempt{
					{Attempt: 1, DispatchSeconds: 0.5, RunSeconds: 0.25, WireSeconds: 0.5},
				}},
			},
		},
		{
			// Two runs on one stream submit the same key: each submit
			// opens its own span. A third submit never finishes and is
			// left out.
			name: "key submitted twice",
			events: []FleetEvent{
				{ElapsedSeconds: 0, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 0, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 0.25, Kind: FleetDispatch, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 0.75, Kind: FleetRun, Cell: "a", Seconds: 0.5},
				{ElapsedSeconds: 1, Kind: FleetDone, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 2, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 2.5, Kind: FleetSchedule, Cell: "a"},
				{ElapsedSeconds: 2.5, Kind: FleetDispatch, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 3.25, Kind: FleetRun, Cell: "a", Seconds: 0.5},
				{ElapsedSeconds: 3.5, Kind: FleetDone, Cell: "a", Attempt: 1},
				{ElapsedSeconds: 4, Kind: FleetSubmit, Cell: "a"},
				{ElapsedSeconds: 4, Kind: FleetSchedule, Cell: "a"},
			},
			want: []CellSpanData{
				{Cell: "a", Outcome: "ok", QueueSeconds: 0, TotalSeconds: 1, Attempts: []SpanAttempt{
					{Attempt: 1, DispatchSeconds: 0.25, RunSeconds: 0.5, WireSeconds: 0.25},
				}},
				{Cell: "a", Outcome: "ok", QueueSeconds: 0.5, TotalSeconds: 1.5, Attempts: []SpanAttempt{
					{Attempt: 1, DispatchSeconds: 0.5, RunSeconds: 0.5, WireSeconds: 0.5},
				}},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := FoldSpans(tc.events); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("FoldSpans =\n%+v\nwant\n%+v", got, tc.want)
			}
		})
	}

	// A live stream folds the same way, and its summary counts the
	// requeue.
	tr := NewSpanRecorder()
	tr.Emit(FleetEvent{Kind: FleetSubmit, Cell: "a"})
	tr.Emit(FleetEvent{Kind: FleetSchedule, Cell: "a"})
	tr.Emit(FleetEvent{Kind: FleetDispatch, Cell: "a", Worker: "fw1/pid9", Attempt: 1})
	tr.Emit(FleetEvent{Kind: FleetRequeue, Cell: "a", Worker: "fw1/pid9", Attempt: 1})
	tr.Emit(FleetEvent{Kind: FleetDispatch, Cell: "a", Worker: "fw2/pid10", Attempt: 2})
	tr.Emit(FleetEvent{Kind: FleetRun, Cell: "a", Seconds: 0.25})
	tr.Emit(FleetEvent{Kind: FleetDone, Cell: "a", Worker: "fw2/pid10", Attempt: 2})
	if got, want := tr.Spans(), FoldSpans(tr.Events()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Spans() = %+v, want the fold of Events() %+v", got, want)
	}
	sum := SummarizeFleet(tr.Events())
	if sum.Cells != 1 || sum.CellsDone != 1 || sum.Requeues != 1 || sum.RunSeconds != 0.25 {
		t.Errorf("summary = %+v, want 1 cell done / 1 requeue / 0.25 s run", sum)
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

// TestSpanNilSafe: a nil timeline absorbs every event and folds no
// spans — the guarantee that lets the runner and executors emit
// unconditionally.
func TestSpanNilSafe(t *testing.T) {
	var tr *FleetTrace
	tr.Emit(FleetEvent{Kind: FleetSubmit, Cell: "x"})
	tr.Emit(FleetEvent{Kind: FleetDispatch, Cell: "x", Attempt: 1})
	tr.Emit(FleetEvent{Kind: FleetDone, Cell: "x", Attempt: 1})
	if spans := tr.Spans(); spans != nil {
		t.Errorf("nil timeline folded spans: %+v", spans)
	}
	if sum := SummarizeFleet(tr.Events()); sum.Events != 0 || sum.Cells != 0 || sum.Slowest != nil {
		t.Errorf("nil timeline summary = %+v", sum)
	}
}

// TestSpanConcurrentFinish: cells emitting from many goroutines while
// readers fold the stream must land without races (the -race build is
// the real assertion).
func TestSpanConcurrentFinish(t *testing.T) {
	tr := NewSpanRecorder()
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				_ = SummarizeFleet(tr.Events())
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell := "cell" + string(rune('a'+i))
			tr.Emit(FleetEvent{Kind: FleetSubmit, Cell: cell})
			tr.Emit(FleetEvent{Kind: FleetSchedule, Cell: cell})
			tr.Emit(FleetEvent{Kind: FleetDispatch, Cell: cell, Attempt: 1})
			_ = tr.Spans()
			tr.Emit(FleetEvent{Kind: FleetRun, Cell: cell, Seconds: 0.01})
			tr.Emit(FleetEvent{Kind: FleetDone, Cell: cell, Attempt: 1})
		}(i)
	}
	wg.Wait()
	close(stop)
	<-read
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("folded %d spans, want 16", len(spans))
	}
	for _, sp := range spans {
		if sp.Outcome != "ok" || len(sp.Attempts) != 1 || sp.Attempts[0].RunSeconds != 0.01 {
			t.Errorf("span mangled by concurrent emission: %+v", sp)
		}
	}
}

// TestStatusServer: GET /status on a live server must return the
// registered sections as JSON.
func TestStatusServer(t *testing.T) {
	st := NewStatus()
	st.Register("timeline", func() interface{} {
		return FleetSummary{Cells: 6, CellsDone: 2, ElapsedSeconds: 1.25}
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
		Timeline *FleetSummary `json:"timeline"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Timeline == nil || doc.Timeline.Cells != 6 || doc.Timeline.CellsDone != 2 {
		t.Fatalf("status document mangled: %+v", doc.Timeline)
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
	st.Register("timeline", func() interface{} { return FleetSummary{Cells: 7} })
	snap := st.Snapshot()
	if g, ok := snap["timeline"].(FleetSummary); !ok || g.Cells != 7 {
		t.Fatalf("re-registered section not visible: %+v", snap["timeline"])
	}
	var nilStatus *Status
	nilStatus.Register("x", func() interface{} { return 1 })
	if got := nilStatus.Snapshot(); len(got) != 0 {
		t.Errorf("nil status snapshot = %+v", got)
	}
}

// TestSummarizeFleet rolls a synthetic trace up and checks attribution:
// a worker's busy time is the run plus wire time of every attempt it
// was dispatched, the requeued one included; a cell no worker ran
// counts, but adds no worker row.
func TestSummarizeFleet(t *testing.T) {
	events := []FleetEvent{
		{Seq: 1, Kind: FleetJoin, Worker: "fw1", Workers: 1},
		{Seq: 2, Kind: FleetJoin, Worker: "fw2", Workers: 2},
		{Seq: 3, Kind: FleetSubmit, Cell: "a"},
		{Seq: 4, Kind: FleetSubmit, Cell: "b"},
		{Seq: 5, ElapsedSeconds: 0.5, Kind: FleetDispatch, Worker: "fw1", Cell: "a", Attempt: 1},
		{Seq: 6, ElapsedSeconds: 1.5, Kind: FleetRequeue, Worker: "fw1", Cell: "a", Attempt: 1, Cause: "fw1 died mid-cell"},
		{Seq: 7, ElapsedSeconds: 1.5, Kind: FleetDrop, Worker: "fw1", Workers: 1, Cause: "connection closed"},
		{Seq: 8, ElapsedSeconds: 2, Kind: FleetDispatch, Worker: "fw2", Cell: "a", Attempt: 2},
		{Seq: 9, ElapsedSeconds: 3.5, Kind: FleetRun, Cell: "a", Seconds: 1.25},
		{Seq: 10, ElapsedSeconds: 4, Kind: FleetDone, Worker: "fw2", Cell: "a", Attempt: 2},
		{Seq: 11, ElapsedSeconds: 4, Kind: FleetDispatch, Worker: "fw2", Cell: "b", Attempt: 1},
		{Seq: 12, ElapsedSeconds: 4.75, Kind: FleetRun, Cell: "b", Seconds: 0.5},
		{Seq: 13, ElapsedSeconds: 5, Kind: FleetDone, Worker: "fw2", Cell: "b", Attempt: 1},
		{Seq: 14, ElapsedSeconds: 5, Kind: FleetStall, Workers: 0},
		{Seq: 15, ElapsedSeconds: 5, Kind: FleetSubmit, Cell: "c"},
		{Seq: 16, ElapsedSeconds: 5.5, Kind: FleetDispatch, Worker: "fw2", Cell: "c", Attempt: 1},
		{Seq: 17, ElapsedSeconds: 6, Kind: FleetFailed, Worker: "fw2", Cell: "c", Cause: "boom"},
		{Seq: 18, ElapsedSeconds: 6, Kind: FleetSubmit, Cell: "d"},
		{Seq: 19, ElapsedSeconds: 6, Kind: FleetDispatch, Cell: "d", Attempt: 1},
		{Seq: 20, ElapsedSeconds: 6.5, Kind: FleetRun, Cell: "d", Seconds: 0.25},
		{Seq: 21, ElapsedSeconds: 6.5, Kind: FleetDone, Cell: "d", Attempt: 1},
		{Seq: 22, ElapsedSeconds: 7, Kind: FleetPhase, Phase: "Fig. 6", Seconds: 7, AllocBytes: 1024},
	}
	sum := SummarizeFleet(events)
	if sum.Joins != 2 || sum.Drops != 1 || sum.Stalls != 1 || sum.Requeues != 1 ||
		sum.Cells != 4 || sum.CellsDone != 3 || sum.CellsFailed != 1 || sum.ElapsedSeconds != 7 {
		t.Fatalf("summary counts wrong: %+v", sum)
	}
	// Queue: a 0.5, b 4, c 0.5, d 0. Wire: a 1 + 0.75, b 0.5, c 0.5,
	// d 0.25. Run: a 1.25, b 0.5, d 0.25.
	if sum.QueueSeconds != 5 || sum.WireSeconds != 3 || sum.RunSeconds != 2 {
		t.Errorf("second totals = queue %g, wire %g, run %g; want 5, 3, 2", sum.QueueSeconds, sum.WireSeconds, sum.RunSeconds)
	}
	if len(sum.Slowest) != 4 || sum.Slowest[0].Cell != "a" {
		t.Errorf("slowest = %+v, want all 4 cells, a first", sum.Slowest)
	}
	if len(sum.Phases) != 1 || sum.Phases[0].Phase != "Fig. 6" || sum.Phases[0].AllocBytes != 1024 {
		t.Errorf("phases = %+v, want the one Fig. 6 phase", sum.Phases)
	}
	if sum.RequeueCauses["fw1 died mid-cell"] != 1 {
		t.Errorf("requeue cause lost: %+v", sum.RequeueCauses)
	}
	if len(sum.Workers) != 2 {
		t.Fatalf("worker rows = %+v, want 2", sum.Workers)
	}
	// Sorted by name: fw1 (1 requeue, 0 done, busy 1.5−0.5), fw2 (2
	// done, 1 failed, busy 4−2 + 5−4 + 6−5.5).
	if w := sum.Workers[0]; w.Worker != "fw1" || w.Requeues != 1 || w.Done != 0 || w.BusySeconds != 1 {
		t.Errorf("fw1 row: %+v", w)
	}
	if w := sum.Workers[1]; w.Worker != "fw2" || w.Done != 2 || w.Failed != 1 || w.BusySeconds != 3.5 {
		t.Errorf("fw2 row: %+v", w)
	}
}
