package main

import (
	"slices"
	"sync"
	"time"
)

// The box the benchmark runs on is a few cores of a shared host, and its
// speed follows what the other tenants do: over an hour of runs the median
// pass of every workload moved by 37–60% between the calmest and the busiest
// run, for minutes at a time, processor time per cell moving with it. No
// statistic inside a run removes that; a second measurement in the same run
// does. So every run also times a fixed piece of work — the reference: a
// sort of the same 32 Ki numbers, standard library only, which no change to
// the simulator can touch — at every window boundary, on every worker at
// once, and reports its time metrics scaled to the speed the reference read
// in the same window. Over the same hour that left 13–28% between the
// extremes, and 4–11% between the quartiles. What the reference does not
// see — a slow disk, a slow loopback — is not taken out.

// referenceMs is what one sample takes on the 2-core box the bounds were
// set on while its neighbours are quiet: a metric scaled to it reads as it
// would on that box at that time. Only its constancy matters; changing it
// rescales every time metric of every workload.
const referenceMs = 10.0

const (
	referenceLen   = 32 << 10
	referenceSorts = 4 // per sample
)

// reference is the work a sample times: per worker, the same numbers and a
// scratch copy to sort. Worker 0 is the caller; the others are goroutines
// that live until stop, so that a sample allocates nothing and
// allocs_per_cell stays the workload's own.
type reference struct {
	src     []uint64
	scratch [][]uint64
	took    []time.Duration
	wake    []chan struct{} // wake[i] starts worker i+1
	wg      sync.WaitGroup
}

func newReference(workers int) *reference {
	r := &reference{
		src:     make([]uint64, referenceLen),
		scratch: make([][]uint64, workers),
		took:    make([]time.Duration, workers),
		wake:    make([]chan struct{}, workers-1),
	}
	x := uint64(88172645463325252) // xorshift64: any fixed sequence would do
	for i := range r.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.src[i] = x
	}
	for i := range r.scratch {
		r.scratch[i] = make([]uint64, referenceLen)
	}
	for i := range r.wake {
		r.wake[i] = make(chan struct{})
		go func() {
			for range r.wake[i] {
				r.sorts(i + 1)
				r.wg.Done()
			}
		}()
	}
	r.sample() // the first touch of the scratch pages is not the sort
	return r
}

func (r *reference) stop() {
	for _, c := range r.wake {
		close(c)
	}
}

func (r *reference) sorts(worker int) {
	start := time.Now()
	for range referenceSorts {
		copy(r.scratch[worker], r.src)
		slices.Sort(r.scratch[worker])
	}
	r.took[worker] = time.Since(start)
}

// sample times the reference on every worker at once and returns the mean
// over the workers, in milliseconds. A nil reference reads the reference
// speed itself: nothing is scaled.
func (r *reference) sample() float64 {
	if r == nil {
		return referenceMs
	}
	r.wg.Add(len(r.wake))
	for _, c := range r.wake {
		c <- struct{}{}
	}
	r.sorts(0)
	r.wg.Wait()
	var total time.Duration
	for _, t := range r.took {
		total += t
	}
	return ms(total) / float64(len(r.took))
}
