//go:build unix

package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// udpProcsDeadline bounds one -procs run; a healthy run takes a few
// seconds even on a loaded 2-vCPU host.
const udpProcsDeadline = 2 * time.Minute

// TestUDPProcsLoopback end-to-ends the -procs multi-process mode: it
// builds the real binary, launches the parent, and checks every rank slice
// reports its transport stats. This is the only path that exercises
// fd-inheritance across exec (NewGroup from net.FilePacketConn). The run
// has a fixed deadline; on expiry the whole process group gets SIGQUIT, so
// the goroutine dumps of the parent and of every child land in the failure
// output.
func TestUDPProcsLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the stfwbench binary")
	}
	bin := filepath.Join(t.TempDir(), "stfwbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), udpProcsDeadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-exp", "live", "-transport", "udp", "-procs", "2")
	// The children inherit the parent's process group; give the parent a
	// group of its own so one signal reaches all of them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGQUIT) }
	cmd.WaitDelay = 10 * time.Second
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("run exceeded %v; goroutine dumps:\n%s", udpProcsDeadline, out)
	}
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"ranks [0,32)", "ranks [32,64)", "data dgrams"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
