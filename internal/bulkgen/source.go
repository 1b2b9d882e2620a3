package bulkgen

import (
	"sync"

	"deepweb/internal/index"
)

// Source streams a world's documents in canonical block order while a
// worker pool generates blocks ahead of the consumer. Because every
// block is generated from its own derived RNG stream, the emitted
// sequence is byte-identical for any worker count — only the wall-clock
// changes. At most workers+1 blocks are in memory at once, so a
// million-row world streams in a few MB regardless of corpus size.
//
// Next is not safe for concurrent use (one consumer); the internal
// workers are. Call Close to release the pool when abandoning the
// stream early; a fully drained Source needs no Close.
type Source struct {
	stop     chan struct{}
	stopOnce sync.Once
	order    chan chan []Doc
	cur      []Doc
	pos      int
}

type blockJob struct {
	ref BlockRef
	res chan []Doc
}

// Source starts a generation pool with the given number of workers
// (min 1) and returns the streaming consumer side.
func (w *World) Source(workers int) *Source {
	if workers < 1 {
		workers = 1
	}
	s := &Source{
		stop:  make(chan struct{}),
		order: make(chan chan []Doc, workers),
	}
	jobs := make(chan blockJob)
	for i := 0; i < workers; i++ {
		go func() {
			for job := range jobs {
				job.res <- w.GenBlock(job.ref, nil)
			}
		}()
	}
	// The dispatcher publishes per-block result channels into order
	// before handing the block to a worker: consumers see blocks in
	// canonical order no matter which worker finishes first, and the
	// buffered order channel is the lookahead bound.
	go func() {
		defer close(jobs)
		defer close(s.order)
		for _, ref := range w.Blocks() {
			res := make(chan []Doc, 1)
			select {
			case s.order <- res:
			case <-s.stop:
				return
			}
			select {
			case jobs <- blockJob{ref: ref, res: res}:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Next returns the next document in canonical order, its annotations,
// and true; ok=false means the stream is exhausted. The signature
// matches engine.BulkSource, so a *Source plugs straight into
// engine.BulkBuild.
func (s *Source) Next() (index.Doc, map[string]string, bool) {
	for s.pos >= len(s.cur) {
		res, ok := <-s.order
		if !ok {
			return index.Doc{}, nil, false
		}
		s.cur = <-res
		s.pos = 0
	}
	d := s.cur[s.pos]
	s.pos++
	return d.Doc, d.Anns, true
}

// Close stops the generation pool. Only needed when abandoning a
// stream before Next has returned ok=false; always safe to call.
func (s *Source) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}
