package harness

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// CPUProfile starts a pprof CPU profile of the process into the file at
// path and returns the function that finishes the profile and closes
// the file; with an empty path it starts nothing. It is the commands'
// -cpuprofile flag: host-side only, nothing simulated sees it, and it
// writes nothing to stdout. The profile is complete only once stop has
// run, so a command that exits early through os.Exit leaves none.
func CPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}
