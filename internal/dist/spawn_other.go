//go:build !linux

package dist

import "os/exec"

// setParentDeathSignal is Linux-only; elsewhere a spawned worker whose
// coordinator died without reaping it must be stopped by hand.
func setParentDeathSignal(*exec.Cmd) {}
