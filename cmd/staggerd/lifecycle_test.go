package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// TestStaggerctlLifecycleAndDrain drives the real daemon the way an
// operator does, through the staggerctl verbs health, submit, wait,
// result and metrics: one paper-table cell runs to completion, a
// resubmission of the same spec is served from the durable store with
// byte-identical result output, and SIGTERM drains the daemon to exit
// code 0 with "drained clean" in its log.
func TestStaggerctlLifecycleAndDrain(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "-grace", "10s")
	ctl := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(ctlBin, append([]string{"-addr", d.addr}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("staggerctl %s: %v\n%s%s", strings.Join(args, " "), err, out, stderr.Bytes())
		}
		return string(out)
	}
	ctl("health")

	// One paper-table cell: list-hi under full staggered transactions.
	spec := `{"cells":[{"bench":"list-hi","mode":"staggered","threads":4,"ops":2000}]}`
	job := strings.TrimSpace(ctl("submit", spec))
	ctl("wait", job)
	first := ctl("result", job)
	if !strings.Contains(first, `"benchmark": "list-hi"`) {
		t.Fatalf("result of %s does not report its benchmark:\n%s", job, first)
	}
	if m := ctl("metrics"); !strings.Contains(m, `"done": 1`) {
		t.Fatalf("metrics after one job do not count it done:\n%s", m)
	}

	// The resubmission is a store hit, and its result is the same bytes.
	job2 := strings.TrimSpace(ctl("submit", spec))
	if st := ctl("wait", job2); !strings.Contains(st, `"from_store": 1`) {
		t.Fatalf("resubmitted job was not served from the store:\n%s", st)
	}
	if again := ctl("result", job2); again != first {
		t.Fatalf("resubmitted result differs:\nfirst:\n%s\nagain:\n%s", first, again)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	code := d.waitExit()
	log, _ := os.ReadFile(d.logPath)
	if code != 0 || !bytes.Contains(log, []byte("drained clean")) {
		t.Fatalf("SIGTERM: exit %d, want 0 and a clean drain in the log:\n%s", code, log)
	}
}
