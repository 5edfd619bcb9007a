package main

import "time"

// The calibration kernel is a fixed piece of pure-Go work (splitmix64
// scattered over a 1 MiB array, ~20 ms on the reference box) that shares
// nothing with the program under test. It runs before every pass: when
// its own time moves, the host changed phase, and a pass-time change of
// the same size is not a regression. It explains; it never gates.
const (
	calibWords = 1 << 17 // 1 MiB of uint64
	calibSteps = 5 << 18
)

var (
	calibBuf  [calibWords]uint64
	calibSink uint64
)

// calibrate returns the fastest of three back-to-back kernel runs: the
// minimum shrugs off a preemption or a garbage-collection tail from the
// pass before, and still moves when the host itself gets slower.
func calibrate() time.Duration {
	best := calibrateOnce()
	for i := 0; i < 2; i++ {
		best = min(best, calibrateOnce())
	}
	return best
}

func calibrateOnce() time.Duration {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < calibSteps; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		slot := &calibBuf[z&(calibWords-1)]
		*slot += z
		x ^= *slot
	}
	calibSink += x
	return time.Since(start)
}

// A run is flagged noisy when the calibration kernel's (max-min)/median
// passes noisySpread, or stolen CPU time passes noisySteal of all CPU time.
const (
	noisySpread = 0.10
	noisySteal  = 0.02
)
