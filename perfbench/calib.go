package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on drifts in speed from minute to minute.
// Time metrics that gate regressions are therefore reported in
// reference-host units: each round times a fixed calibration workload once
// its store is set up and idle (the fastest of calibReps tries, as
// interference only ever slows it down), and the run's times are scaled by
// calibRefSeconds over the median of the rounds' calibrations. The median,
// not the fastest round, so that one lucky calibration does not rescale the
// whole run. The raw times are printed too. Barrier waits on an fsync, yet
// this scaling steadies it better than timing fsyncs did: over twenty runs
// its p50 spread 0.14 raw, 0.07 scaled by this calibration and 0.12 scaled
// by a probe of 64-byte appends each followed by an fsync.

// calibRefSeconds is the calibration time of the reference host.
const calibRefSeconds = 0.06

// calibration is a fixed mix of dependent DRAM loads and ALU work, the two
// things the store's calls spend their time on.
type calibration struct {
	next []uint32 // one random cycle over the slice
}

// calibSlots spans 32 MiB, past the last-level cache, so the walk misses.
const (
	calibSlots = 1 << 23
	calibSteps = 1 << 18
	calibMix   = 1 << 23
	calibReps  = 3
)

func newCalibration(seed int64) *calibration {
	perm := rand.New(rand.NewSource(seed)).Perm(calibSlots)
	next := make([]uint32, calibSlots)
	for i := range perm {
		next[perm[i]] = uint32(perm[(i+1)%calibSlots])
	}
	return &calibration{next: next}
}

// calibSink keeps the compiler from discarding the calibration work.
var calibSink uint64

// seconds returns the fastest wall time of calibReps runs of the workload,
// each run doing it on clientCount goroutines at once, so that a host whose
// CPUs slow unevenly shows it as the clients would feel it.
func (c *calibration) seconds() float64 {
	times := make([]float64, calibReps)
	for r := range times {
		t0 := time.Now()
		var wg sync.WaitGroup
		sums := make([]uint64, clientCount)
		for g := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := uint32(g * calibSlots / clientCount)
				for i := 0; i < calibSteps; i++ {
					p = c.next[p]
				}
				x := uint64(p) | 1
				for i := 0; i < calibMix; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				sums[g] = x
			}()
		}
		wg.Wait()
		for _, x := range sums {
			calibSink += x
		}
		times[r] = time.Since(t0).Seconds()
	}
	sort.Float64s(times)
	return times[0]
}
