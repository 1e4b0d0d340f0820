package main

import (
	"sort"
	"sync"
	"time"
)

// This box's clock is not steady: identical runs take 2.2 s or 2.9 s
// depending on what the host's other tenants are doing, in phases that
// last seconds to minutes, and a ten-second measurement cannot average
// that out. What it can do is measure the clock while it measures the
// program. A clockSampler times a fixed arithmetic kernel — a dependent
// multiply-add chain that touches no memory, so its duration is the
// core's effective clock and nothing else — every few milliseconds for
// as long as the timed call runs. Dividing the call's wall time by the
// kernel's mean cost gives the call's cost in kernel operations, which
// is the same in a fast phase and a slow one (over 20 back-to-back runs
// of longflows-packet wall time spread 22%, the quotient 1.4%).
//
// The kernel belongs to the benchmark, not to the simulator, so a
// change to the simulator cannot move it.

const (
	clockKernelOps = 200_000 // ~0.2 ms per sample
	clockTick      = 5 * time.Millisecond
)

// clockKernel runs the kernel once and returns its duration in
// nanoseconds per operation.
func clockKernel() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < clockKernelOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	ns := float64(time.Since(start).Nanoseconds())
	sinkInt += int(x >> 60)
	return ns / clockKernelOps
}

// clockSampler samples the kernel on its own goroutine (about 4% of one
// core, the one the serial engine leaves idle) between start and finish.
type clockSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	vals []float64
}

func startClockSampler() *clockSampler {
	s := &clockSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(clockTick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.vals = append(s.vals, clockKernel())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the mean nanoseconds per kernel
// operation over the sampled interval. The slowest tenth of the
// samples is dropped first: a sample during which the sampler's thread
// was descheduled measures the scheduler, not the clock.
func (s *clockSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	if len(s.vals) == 0 {
		return clockKernel() // the call was shorter than one tick
	}
	sort.Float64s(s.vals)
	keep := s.vals[:len(s.vals)-len(s.vals)/10]
	var sum float64
	for _, v := range keep {
		sum += v
	}
	return sum / float64(len(keep))
}
