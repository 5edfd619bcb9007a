package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonRequiresStore: every daemon is durable, so staggerd without
// -store refuses to start: it exits non-zero naming the flag, before it
// listens or publishes an address.
func TestDaemonRequiresStore(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	// A daemon that wrongly starts serves until the deadline kills it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, daemonBin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); err == nil || code <= 0 || ctx.Err() != nil {
		t.Fatalf("staggerd without -store: %v (exit %d), want a prompt non-zero exit\n%s", err, code, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "-store") {
		t.Fatalf("staggerd without -store does not name the flag:\n%s", stderr.Bytes())
	}
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Fatalf("staggerd without -store wrote its -addr-file (%v)", err)
	}
}

// TestStaggerctlLifecycleAndDrain drives the real daemon the way an
// operator does, through the staggerctl verbs health, submit, wait,
// result and metrics: one paper-table cell runs to completion, two
// resubmissions of the same spec are served from the durable store with
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
	var cells []struct {
		Report struct {
			Benchmark string `json:"benchmark"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(first), &cells); err != nil || len(cells) == 0 || cells[0].Report.Benchmark != "list-hi" {
		t.Fatalf("result of %s does not report its benchmark (%v):\n%s", job, err, first)
	}
	if m := ctl("metrics"); !strings.Contains(m, `"done": 1`) {
		t.Fatalf("metrics after one job do not count it done:\n%s", m)
	}

	// Each resubmission is served from the store and its result is the
	// same bytes. The first reads the entry from disk and holds it (the
	// first job kept no copy of a payload the store took); the second is
	// served from the held index.
	for k := 0; k < 2; k++ {
		again := strings.TrimSpace(ctl("submit", spec))
		if st := ctl("wait", again); !strings.Contains(st, `"from_store": 1`) {
			t.Fatalf("resubmitted job was not served from the store:\n%s", st)
		}
		if res := ctl("result", again); res != first {
			t.Fatalf("resubmitted result differs:\nfirst:\n%s\nagain:\n%s", first, res)
		}
	}
	m := ctl("metrics")
	for _, want := range []string{`"held_hits": 1`, `"held_keys": 1`, `"held_bytes": `, `"result_recomputes": 0`} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics after two resubmissions lack %s:\n%s", want, m)
		}
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
