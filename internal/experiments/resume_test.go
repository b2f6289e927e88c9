package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"remapd/internal/checkpoint"
)

// TestFig6GridInterruptAndResume is the grid-level acceptance check: a
// checkpointed Fig. 6 run interrupted mid-grid and then re-run must emit
// exactly the rows of an uninterrupted run, skipping completed cells and
// resuming partial ones.
func TestFig6GridInterruptAndResume(t *testing.T) {
	reg := DefaultRegime()
	policies := []string{"ideal", "none", "remap-d"}

	base := determinismScale()
	base.Workers = 2

	// Uninterrupted, checkpoint-free baseline.
	baseline, err := Fig6(context.Background(), base, reg, policies)
	if err != nil {
		t.Fatal(err)
	}

	store, err := checkpoint.NewStore(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel the grid as soon as the first cell
	// completes (simulating SIGINT mid-grid); in-flight cells stop at
	// their next batch boundary, leaving their epoch-boundary snapshots.
	interrupted := base
	interrupted.Checkpoints = store
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	interrupted.Progress = func(format string, args ...interface{}) {
		if strings.HasPrefix(format, "cell ") {
			once.Do(cancel)
		}
	}
	if _, err := Fig6(ctx, interrupted, reg, policies); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted grid returned %v, want context.Canceled", err)
	}

	// Resume: same store, fresh context. Rows must be bit-identical to
	// the baseline, and at least the completed cell must train zero
	// epochs (its snapshot already holds the full result).
	resumed := base
	resumed.Checkpoints = store
	var mu sync.Mutex
	epochLines := 0
	resumed.Progress = func(format string, args ...interface{}) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "] epoch ") {
			mu.Lock()
			epochLines++
			mu.Unlock()
			// Satellite check: per-cell trainer output is multiplexed
			// through the runner with the cell key as prefix.
			if !strings.HasPrefix(line, "[") || !strings.Contains(line, "] ") {
				t.Errorf("unattributed cell progress line %q", line)
			}
		}
	}
	rows, err := Fig6(context.Background(), resumed, reg, policies)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, rows) {
		t.Fatalf("resumed grid differs from uninterrupted baseline:\n%s\nvs\n%s",
			FormatFig6(baseline), FormatFig6(rows))
	}
	totalEpochs := len(policies) * len(base.Seeds) * base.Epochs
	if epochLines >= totalEpochs {
		t.Fatalf("resume retrained the whole grid (%d epoch lines, full grid is %d)", epochLines, totalEpochs)
	}

	// Third pass: everything is checkpointed as complete — zero epochs.
	mu.Lock()
	epochLines = 0
	mu.Unlock()
	rows, err = Fig6(context.Background(), resumed, reg, policies)
	if err != nil {
		t.Fatal(err)
	}
	if epochLines != 0 {
		t.Fatalf("fully-checkpointed grid retrained %d epochs, want 0", epochLines)
	}
	if !reflect.DeepEqual(baseline, rows) {
		t.Fatal("fully-checkpointed grid rows differ from baseline")
	}
}
