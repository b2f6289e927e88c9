//go:build linux

package dist

import (
	"os/exec"
	"syscall"
)

// setParentDeathSignal has the kernel kill a spawned worker if the
// coordinator dies without reaping it. Otherwise the worker would redial
// a coordinator that no longer exists, forever.
func setParentDeathSignal(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
