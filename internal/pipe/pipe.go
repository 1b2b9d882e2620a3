// Package pipe is the program's one worker pool: Ordered maps a
// sequence through a function on a fixed set of goroutines and yields
// the results in input order, and Each runs numbered jobs on it. Both
// join every goroutine they start before they return, however the
// caller stops, so "the pool is joined on every path" is held here
// once instead of at each caller.
package pipe

import (
	"iter"
	"sync"
	"sync/atomic"
)

// Ordered returns the sequence fn(v) for each v of in, in in's order,
// computed on up to workers goroutines (at least one). in is read on
// one goroutine, at most ahead items (at least one) past the result the
// consumer awaits — the one it waits for or is handling — so ahead,
// plus one, bounds how many inputs and results are held at once and
// how many workers can be busy. Every goroutine is joined before a
// range over the result ends, whether the loop runs out, breaks or
// returns; in is not read after that. Each range starts its own pool;
// fn must be safe to call concurrently when workers > 1.
func Ordered[T, R any](workers, ahead int, in iter.Seq[T], fn func(T) R) iter.Seq[R] {
	ahead = max(ahead, 1)
	workers = min(max(workers, 1), ahead+1)
	type job struct {
		v   T
		res chan R
	}
	return func(yield func(R) bool) {
		// order carries each input's result channel once a worker has
		// it: the consumer holds one, the buffer ahead-1 more, and the
		// reader one more it has handed out, which is the lookahead.
		order := make(chan chan R, ahead-1)
		jobs := make(chan job)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		defer func() {
			close(stop)
			wg.Wait()
		}()
		wg.Add(workers + 1)
		for range workers {
			go func() {
				defer wg.Done()
				for j := range jobs {
					j.res <- fn(j.v) // buffered: a worker never waits on the consumer
				}
			}()
		}
		go func() {
			defer wg.Done()
			defer close(jobs)
			defer close(order)
			for v := range in {
				res := make(chan R, 1)
				select {
				case jobs <- job{v, res}:
				case <-stop:
					return
				}
				select {
				case order <- res:
				case <-stop:
					return
				}
			}
		}()
		for res := range order {
			if !yield(<-res) {
				return
			}
		}
	}
}

// Each runs fn(0), …, fn(n-1) on up to workers goroutines, started in
// index order and none held back by a slow lower index, and returns the
// error of the lowest index that failed, or nil. Once an index has
// failed, no higher index starts. It returns after every call it
// started has.
func Each(workers, n int, fn func(int) error) error {
	var failed atomic.Int64 // the lowest failed index so far; n while none has
	failed.Store(int64(n))
	indices := func(yield func(int) bool) {
		for i := range n {
			if !yield(i) {
				return
			}
		}
	}
	for err := range Ordered(workers, n, indices, func(i int) error {
		if int64(i) > failed.Load() {
			return nil // a lower index failed, and its error is the one returned
		}
		err := fn(i)
		if err != nil {
			for f := failed.Load(); int64(i) < f; f = failed.Load() {
				if failed.CompareAndSwap(f, int64(i)) {
					break
				}
			}
		}
		return err
	}) {
		if err != nil {
			return err
		}
	}
	return nil
}
