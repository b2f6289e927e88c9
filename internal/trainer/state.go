package trainer

import (
	"remapd/internal/arch"
	"remapd/internal/fault"
	"remapd/internal/nn"
	"remapd/internal/remap"
	"remapd/internal/tensor"
)

// TrainState exposes the live objects whose joint state determines the
// remainder of a training run. A CheckpointHook serializes them at epoch
// boundaries and restores them on resume; together with the deterministic
// RNG streams this is sufficient for a resumed run to be bit-identical to
// an uninterrupted one.
//
// The trainer owns the lifecycle: pointers are valid for the duration of
// the Resume/Save call only.
type TrainState struct {
	// Net is the network (weights + BN running stats).
	Net *nn.Network
	// Opt is the SGD optimizer (LR after decay, momentum velocities).
	Opt *nn.SGD
	// TrainRNG drives batch shuffling; FaultRNG drives fault injection.
	TrainRNG *tensor.RNG
	FaultRNG *tensor.RNG
	// Chip is nil when training on the ideal digital fabric.
	Chip *arch.Chip
	// Endurance is nil unless physical wear-out is configured.
	Endurance *fault.EnduranceModel
	// Policy is the active fault-tolerance policy (never nil; remap.None
	// when unset). Only its name is saved: what it decided lives on Chip.
	Policy remap.Policy
	// Result accumulates the partial run summary; restored on resume so
	// per-epoch curves span the whole run.
	Result *Result
}

// CheckpointHook persists and restores TrainState at epoch boundaries.
// Implementations live outside this package (internal/checkpoint); the
// trainer only defines the contract so the dependency points outward.
type CheckpointHook interface {
	// Resume is called once, after deterministic construction (network
	// mapped, optimizer built, RNGs seeded) but before any fault
	// injection or policy deployment. If a usable snapshot exists it
	// applies the snapshot to st and returns the number of completed
	// epochs with resumed = true. A missing, stale, or corrupt snapshot
	// returns (0, false, nil) — the run starts fresh. Errors are
	// reserved for states that decode cleanly but cannot be applied.
	Resume(st *TrainState) (startEpoch int, resumed bool, err error)
	// Save is called after each completed epoch (epochsDone in
	// [1, Epochs]) with st reflecting the epoch boundary. A Save error
	// aborts the run: continuing would leave a stale snapshot that no
	// longer matches the advertised epoch.
	Save(st *TrainState, epochsDone int) error
}
