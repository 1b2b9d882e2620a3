package pipe

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// count yields 0, …, n-1 and records, in read, how many it has yielded.
func count(n int, read *atomic.Int64) func(func(int) bool) {
	return func(yield func(int) bool) {
		for i := range n {
			read.Store(int64(i + 1))
			if !yield(i) {
				return
			}
		}
	}
}

// settle waits for the goroutine count to fall back to before.
func settle(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the range, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// Results come back in input order whatever order the workers finish
// in.
func TestOrderedKeepsOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, ahead := range []int{1, 4, 100} {
			t.Run(fmt.Sprintf("workers=%d/ahead=%d", workers, ahead), func(t *testing.T) {
				var read atomic.Int64
				next := 0
				for got := range Ordered(workers, ahead, count(200, &read), func(i int) int {
					time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
					return i * i
				}) {
					if got != next*next {
						t.Fatalf("result %d is %d, want %d", next, got, next*next)
					}
					next++
				}
				if next != 200 {
					t.Fatalf("%d results of 200", next)
				}
			})
		}
	}
}

// The input is read at most ahead items past the result the consumer
// awaits, whatever the workers' speed, and up to that bound when the
// consumer is slow.
func TestOrderedBoundsLookahead(t *testing.T) {
	for _, ahead := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("ahead=%d", ahead), func(t *testing.T) {
			var done atomic.Int64 // results the consumer has finished with
			var worst atomic.Int64
			in := func(yield func(int) bool) {
				for i := range 100 {
					if over := int64(i) - done.Load(); over > worst.Load() {
						worst.Store(over)
					}
					if !yield(i) {
						return
					}
				}
			}
			for range Ordered(4, ahead, in, func(i int) int { return i }) {
				time.Sleep(100 * time.Microsecond) // a slow consumer lets the reader run ahead
				done.Add(1)
			}
			if got := worst.Load(); got != int64(ahead) {
				t.Fatalf("read up to %d items past the awaited result, want exactly %d", got, ahead)
			}
		})
	}
}

// However the range ends — run out, break, return — every goroutine
// is joined before it does, and the input is not read after.
func TestOrderedJoinsOnEveryExit(t *testing.T) {
	slow := func(i int) int { time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond); return i }
	exits := map[string]func(seq func(func(int) bool)){
		"run out": func(seq func(func(int) bool)) {
			for range Ordered(4, 4, seq, slow) {
			}
		},
		"break": func(seq func(func(int) bool)) {
			for v := range Ordered(4, 4, seq, slow) {
				if v == 10 {
					break
				}
			}
		},
		"return": func(seq func(func(int) bool)) {
			func() {
				for v := range Ordered(4, 4, seq, slow) {
					if v == 3 {
						return
					}
				}
			}()
		},
		"first item": func(seq func(func(int) bool)) {
			for range Ordered(8, 100, seq, slow) {
				break
			}
		},
	}
	for name, exit := range exits {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var read atomic.Int64
			exit(count(50, &read))
			after := read.Load()
			settle(t, before)
			time.Sleep(5 * time.Millisecond)
			if read.Load() != after {
				t.Fatalf("input read %d times after the range returned", read.Load()-after)
			}
		})
	}
}

// Each returns the lowest failing index's error, however the workers
// interleave, and after it returns nothing more runs.
func TestEachReturnsLowestFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 6} {
		for trial := range 20 {
			failing := map[int]bool{7: true, 3 + trial%5: true, 15: true}
			var running atomic.Int64
			err := Each(workers, 20, func(i int) error {
				running.Add(1)
				defer running.Add(-1)
				time.Sleep(time.Duration(rand.Intn(200)) * time.Microsecond)
				if failing[i] {
					return fmt.Errorf("job %d", i)
				}
				return nil
			})
			want := fmt.Sprintf("job %d", min(7, 3+trial%5))
			if err == nil || err.Error() != want {
				t.Fatalf("workers=%d: err %v, want %s", workers, err, want)
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("workers=%d: %d calls still running after Each returned", workers, n)
			}
		}
	}
	if err := Each(3, 0, func(int) error { return errors.New("called") }); err != nil {
		t.Fatalf("no jobs: %v", err)
	}
}

// Once an index has failed, no higher index starts: on one worker the
// calls stop at the failure; on several, no call above it begins after
// it has returned.
func TestEachStartsNothingAfterFailure(t *testing.T) {
	var mu sync.Mutex
	var started []int
	err := Each(1, 10, func(i int) error {
		mu.Lock()
		started = append(started, i)
		mu.Unlock()
		if i == 4 {
			return errors.New("four")
		}
		return nil
	})
	if err == nil || fmt.Sprint(started) != "[0 1 2 3 4]" {
		t.Fatalf("one worker: err %v, started %v", err, started)
	}

	var failedAt atomic.Int64
	failedAt.Store(-1)
	var late atomic.Int64
	err = Each(4, 100, func(i int) error {
		if f := failedAt.Load(); f >= 0 && i > int(f) {
			late.Add(1)
		}
		if i == 20 {
			failedAt.Store(20)
			return errors.New("twenty")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || err.Error() != "twenty" {
		t.Fatalf("four workers: err %v", err)
	}
	// A worker that checked before the failure was recorded may still
	// start one job; four workers allow at most three such.
	if n := late.Load(); n > 3 {
		t.Fatalf("%d jobs above the failed index started after it failed", n)
	}
}
