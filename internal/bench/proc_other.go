//go:build !unix

package bench

import "os/exec"

// Without process groups the benchmark can only signal the children it
// started itself; none of the four binaries forks.

func setProcessGroup(*exec.Cmd) {}

func terminateGroup(cmd *exec.Cmd) { _ = cmd.Process.Kill() }

func killGroup(cmd *exec.Cmd) { _ = cmd.Process.Kill() }
