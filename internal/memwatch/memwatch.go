// Package memwatch samples the Go heap during a measured run so bulk
// builds and benchmarks can report peak memory alongside throughput.
// It watches HeapAlloc (live heap bytes), the figure the ingest
// ladder's memory gates bound: RSS proper includes allocator overhead
// and OS accounting noise that varies across machines, while HeapAlloc
// moves with the working set the program holds.
package memwatch

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Watch samples the heap on a fixed interval until stopped.
type Watch struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	peak     atomic.Uint64
}

// Start begins sampling every interval (≤0 means 10ms).
func Start(interval time.Duration) *Watch {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	w := &Watch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.sample()
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

func (w *Watch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		cur := w.peak.Load()
		if ms.HeapAlloc <= cur || w.peak.CompareAndSwap(cur, ms.HeapAlloc) {
			return
		}
	}
}

// Stop halts sampling (idempotent) and returns the peak HeapAlloc in
// bytes observed, including one final sample taken at Stop.
func (w *Watch) Stop() uint64 {
	w.stopOnce.Do(func() {
		close(w.stop)
	})
	<-w.done
	w.sample()
	return w.peak.Load()
}

// PeakMB converts a Stop result to mebibytes.
func PeakMB(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
