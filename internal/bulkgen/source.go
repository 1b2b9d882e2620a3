package bulkgen

import (
	"iter"
	"slices"

	"deepweb/internal/index"
	"deepweb/internal/pipe"
)

// Source streams a world's documents in canonical block order while
// workers goroutines generate the next blocks (pipe.Ordered). Because
// every block is generated from its own derived RNG stream, the emitted
// sequence is byte-identical for any worker count — only the wall-clock
// changes. At most workers+1 blocks are in memory at once, so a
// million-row world streams in a few MB regardless of corpus size.
//
// Next is not safe for concurrent use (one consumer). The pool starts
// at the first Next; call Close to join it when abandoning the stream
// early. A fully drained Source needs no Close.
type Source struct {
	next func() ([]Doc, bool)
	stop func()
	cur  []Doc
	pos  int
}

// Source returns the streaming consumer side of a generation pool with
// the given number of workers (min 1).
func (w *World) Source(workers int) *Source {
	blocks := pipe.Ordered(workers, workers, slices.Values(w.Blocks()), func(ref BlockRef) []Doc {
		return w.GenBlock(ref, nil)
	})
	next, stop := iter.Pull(blocks)
	return &Source{next: next, stop: stop}
}

// Next returns the next document in canonical order, its annotations,
// and true; ok=false means the stream is exhausted. The signature
// matches engine.BulkSource, so a *Source plugs straight into
// engine.BulkBuild.
func (s *Source) Next() (index.Doc, map[string]string, bool) {
	for s.pos >= len(s.cur) {
		block, ok := s.next()
		if !ok {
			return index.Doc{}, nil, false
		}
		s.cur, s.pos = block, 0
	}
	d := s.cur[s.pos]
	s.pos++
	return d.Doc, d.Anns, true
}

// Close stops the generation pool and returns once its goroutines have
// exited. Only needed when abandoning a stream before Next has returned
// ok=false; always safe to call, more than once too.
func (s *Source) Close() { s.stop() }
