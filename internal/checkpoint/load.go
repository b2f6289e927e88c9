package checkpoint

import (
	"bytes"
	"fmt"
	"os"

	"remapd/internal/nn"
)

// This file is the serving-side load path: remapd-serve needs the trained
// weights out of a checkpoint without a trainer.TrainState to Apply into
// (no optimizer, no training RNG streams, no partial-result bookkeeping).

// LoadFile reads and decodes one checkpoint file into a Snapshot.
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}

// RestoreNetwork installs only the snapshot's network weights into net —
// trainable parameters plus BatchNorm running statistics, everything
// eval-mode inference depends on. net must have the producing run's
// architecture. nn.LoadWeights validates each tensor's name and volume
// as it goes, so an error can leave the tensors before the bad one
// already overwritten: callers must discard net on error.
func (snap *Snapshot) RestoreNetwork(net *nn.Network) error {
	if err := nn.LoadWeights(bytes.NewReader(snap.netBlob), net); err != nil {
		return fmt.Errorf("checkpoint: restore network: %w", err)
	}
	return nil
}
