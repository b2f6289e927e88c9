package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamTraceMatchesBufferedWrite is the streaming contract: the final
// on-disk bytes of a StreamTrace (flushed piecemeal across epochs) must be
// identical to the whole trace written in one go (writeBuffered).
func TestStreamTraceMatchesBufferedWrite(t *testing.T) {
	record := func(r Recorder, from, to int) {
		for e := from; e < to; e++ {
			r.Add("batches", 4)
			r.Set("density", float64(e)*0.01)
			r.Observe("loss", 1.0/float64(e+1))
			r.Emit(&EpochEvent{Epoch: e, Steps: 4, Loss: 1.0 / float64(e+1), TestAcc: 0.5})
			r.Emit(&SwapEvent{Epoch: e, Sender: e, Receiver: e + 1, Hops: 2})
		}
	}

	bufDir, streamDir := t.TempDir(), t.TempDir()
	bufSink, err := NewSink(bufDir)
	if err != nil {
		t.Fatal(err)
	}
	trace := NewTrace("cellA")
	record(trace, 0, 3)
	if err := writeBuffered(bufSink, "cellA", trace); err != nil {
		t.Fatal(err)
	}

	streamSink, err := NewSink(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := streamSink.Stream("cellA", "cellA")
	if err != nil {
		t.Fatal(err)
	}
	// Flush after each "epoch", as the trainer does.
	for e := 0; e < 3; e++ {
		record(st, e, e+1)
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		// Bounded memory: flushed events must leave the in-memory trace.
		if n := len(st.Events()); n != 0 {
			t.Fatalf("epoch %d: %d events still buffered after Flush", e, n)
		}
		// Crash visibility: the events file already holds everything
		// emitted so far (cell-start + 2 lines per epoch).
		data, err := os.ReadFile(filepath.Join(streamDir, "cellA"+eventsSuffix))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Count(string(data), "\n"), 1+2*(e+1); got != want {
			t.Fatalf("epoch %d: events file has %d lines, want %d", e, got, want)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}

	for _, suffix := range []string{metricsSuffix, eventsSuffix} {
		buffered, err := os.ReadFile(filepath.Join(bufDir, "cellA"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := os.ReadFile(filepath.Join(streamDir, "cellA"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if string(buffered) != string(streamed) {
			t.Errorf("%s differs between buffered and streamed writes:\n--- buffered\n%s\n--- streamed\n%s",
				suffix, buffered, streamed)
		}
	}
}

// writeBuffered is the byte oracle of the streaming contract: it writes a
// whole trace in one go — the metrics snapshot, then the events file
// headed by its cell-start line.
func writeBuffered(s *Sink, base string, t *Trace) error {
	if err := s.writeMetrics(base, t); err != nil {
		return err
	}
	events := append([]Event{&CellStartEvent{Cell: t.Cell()}}, t.Events()...)
	var buf bytes.Buffer
	if err := EncodeEvents(&buf, events); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.dir, base+eventsSuffix), buf.Bytes(), 0o644)
}

// TestStreamTraceHeadsFileImmediately: a cell that dies before its first
// flush must still leave an attributable event log.
func TestStreamTraceHeadsFileImmediately(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sink.Stream("dead", "dead-cell")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "dead"+eventsSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cell-start"`) || !strings.Contains(string(data), "dead-cell") {
		t.Fatalf("events file not headed with cell-start: %q", data)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
