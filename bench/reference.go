package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// referenceQuietMS is what referenceMS reads on the machine this
// benchmark was sized on while its neighbours are idle. The timings of
// the restart cycles are stated in that machine's quiet seconds:
// measured wall × referenceQuietMS / the run's own reading.
const referenceQuietMS = 24.0

// referenceMS times a fixed piece of work that belongs to the
// benchmark and to no layer of the program: every core at once fills
// 150 000 words from a xorshift generator and sorts them (1.2 MB a
// core, arithmetic and cache, no system calls). It is how a run learns
// how fast the machine is while it runs. This machine is two vCPUs of
// a shared host, and for minutes at a time its neighbours slow
// everything on it by 20–45 %; a build or a load has no quiet tenth to
// fall back on as the serving slices have, but this kernel slows with
// them (README.md, "The reference kernel"). The best of three
// repetitions after a collection, so neither a burst nor this
// process's own collector is mistaken for the machine.
func referenceMS() float64 {
	runtime.GC()
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				xs := make([]uint64, 150_000)
				x := uint64(7 + g)
				for i := range xs {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					xs[i] = x
				}
				sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
				if xs[0] > xs[len(xs)-1] {
					panic("bench: reference kernel did not sort")
				}
			}(g)
		}
		wg.Wait()
		best = min(best, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return best
}
