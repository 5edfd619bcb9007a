package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// hostInfo identifies the machine a report was measured on.
type hostInfo struct {
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	TmpFS string `json:"tmp_fs"` // filesystem under the temp store
}

func host(tmpDir string) hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), TmpFS: fsType(tmpDir)}
}

// fsNames maps statfs magic numbers to names for the filesystems a
// sandbox is likely to put a work directory on.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// memDelta is what one region of the run cost the Go heap.
type memDelta struct {
	AllocMB float64
	Mallocs float64
	GCShare float64 // GC CPU seconds over non-idle CPU seconds
}

// The runtime's CPU classes are cumulative estimates refreshed at the end
// of each GC cycle, which is often enough for a multi-second pass.
const (
	cpuGC    = "/cpu/classes/gc/total:cpu-seconds"
	cpuTotal = "/cpu/classes/total:cpu-seconds"
	cpuIdle  = "/cpu/classes/idle:cpu-seconds"
)

// memMark snapshots the allocator so a later since() can report a delta.
type memMark struct {
	ms          runtime.MemStats
	gcCPU, busy float64
}

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	m.gcCPU, m.busy = cpuSeconds()
	return m
}

func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{{Name: cpuGC}, {Name: cpuTotal}, {Name: cpuIdle}}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func (m memMark) since() memDelta {
	now := markMem()
	d := memDelta{
		AllocMB: float64(now.ms.TotalAlloc-m.ms.TotalAlloc) / (1 << 20),
		Mallocs: float64(now.ms.Mallocs - m.ms.Mallocs),
	}
	if busy := now.busy - m.busy; busy > 0 {
		d.GCShare = (now.gcCPU - m.gcCPU) / busy
	}
	return d
}

// stealJiffies reads the time this virtual machine's CPUs were runnable
// but not run, and all CPU time, from /proc/stat's first line. Their ratio
// over a run is the share of the machine a neighbour took: it explains a
// slow run the way the calibration kernel does, and never gates.
func stealJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
