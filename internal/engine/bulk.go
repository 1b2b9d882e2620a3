package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"deepweb/internal/index"
	"deepweb/internal/store"
)

// Bulk builds: the path that lets a million-document world become a
// snapshot under a bounded memory budget. BulkBuild never builds an
// index at all. It tokenizes a stream on the given workers and hands
// every document to the same store.Writer Save uses, which streams the
// docs segment, interns the annotations into the schema tables of the
// columns segment, accumulates postings in RAM, spills sorted runs to
// disk every SpillDocs documents and k-way merges them into the final
// per-shard segments. Peak memory is the spill window plus one shard's
// merged postings plus the annotation tables, which grow with the
// corpus's distinct annotation values and which a server of the
// snapshot holds anyway.
//
// The writer places every term, whichever path it came in by, so the
// directory BulkBuild writes is byte-identical — every file — to Save
// of an index holding the same stream, regardless of worker count,
// batch size, spill budget or process (property-tested).

// BulkSource streams documents in a deterministic order. Next returns
// the next document, its annotations (nil for none), and ok=false when
// the stream is exhausted. An annotation map must not change once
// returned: the writer interns it later, on a goroutine of its own.
// bulkgen.Source satisfies this.
type BulkSource interface {
	Next() (d index.Doc, anns map[string]string, ok bool)
}

// DefaultBulkBatch is the tokenization batch size BulkBuild uses when
// BulkBuildOptions.Batch is zero.
const DefaultBulkBatch = 4096

// DefaultSpillDocs is the spill window (documents per on-disk run
// flush) used when BulkBuildOptions.SpillDocs is zero.
const DefaultSpillDocs = 1 << 16

// BulkBuildOptions configures BulkBuild.
type BulkBuildOptions struct {
	// Docs is the exact stream length; the docs segment header needs
	// it up front. Required.
	Docs int
	// Shards is the postings-shard count of the snapshot (default
	// index.DefaultShards).
	Shards int
	// Batch is the tokenization batch size (default DefaultBulkBatch).
	Batch int
	// SpillDocs bounds the in-RAM posting accumulator: every SpillDocs
	// documents, all shards flush sorted runs to disk (default
	// DefaultSpillDocs). Smaller = less RAM, more runs to merge.
	SpillDocs int
	// Workers parallelizes tokenization and the final shard merges
	// (default 1).
	Workers int
}

// BulkStats reports one bulk build.
type BulkStats struct {
	Docs     int   // documents written
	Runs     int   // spill-run files written
	Postings int64 // term postings produced
}

// nextBatch appends up to batch documents of src, and their
// annotations in step, to docs and anns.
func nextBatch(src BulkSource, batch int, docs []index.Doc, anns []map[string]string) ([]index.Doc, []map[string]string) {
	for len(docs) < batch {
		d, a, ok := src.Next()
		if !ok {
			break
		}
		docs = append(docs, d)
		anns = append(anns, a)
	}
	return docs, anns
}

// prepareAll tokenizes docs on up to workers (at least one)
// goroutines, preserving order: ps[i] is always Prepare(docs[i]).
func prepareAll(workers int, docs []index.Doc) []*index.Prepared {
	ps := make([]*index.Prepared, len(docs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(docs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				ps[i] = index.Prepare(docs[i])
			}
		}()
	}
	wg.Wait()
	return ps
}

// BulkBuild streams src into a snapshot directory at dir without ever
// holding the corpus in memory; the result Loads exactly like a
// directory written by Save. opts.Docs must match the stream length —
// a short or long stream is an error, as is a duplicate URL, which the
// writer names by both doc ids before it renames any segment into
// place. On error the partial build's temp files and spill runs are
// swept; a stale docs/postings segment from an earlier completed build
// may remain, exactly as an interrupted Save would leave one.
func BulkBuild(ctx context.Context, src BulkSource, dir string, opts BulkBuildOptions) (BulkStats, error) {
	var stats BulkStats
	if opts.Docs <= 0 {
		return stats, fmt.Errorf("engine: bulk build: Docs must be the exact stream length, got %d", opts.Docs)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = index.DefaultShards
	}
	spill := opts.SpillDocs
	if spill <= 0 {
		spill = DefaultSpillDocs
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = DefaultBulkBatch
	}
	if batch > spill {
		batch = spill
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	w, err := store.NewWriter(dir, shards, opts.Docs, spill)
	if err != nil {
		return stats, fmt.Errorf("engine: bulk build: %w", err)
	}
	defer w.Abort()

	docs := make([]index.Doc, 0, batch)
	anns := make([]map[string]string, 0, batch)
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		docs, anns = nextBatch(src, batch, docs[:0], anns[:0])
		if len(docs) == 0 {
			break
		}
		for i, p := range prepareAll(workers, docs) {
			// A stream longer than opts.Docs fails here, a shorter one
			// at Commit: the writer holds the declared count.
			if err := w.AddPrepared(p, anns[i]); err != nil {
				return stats, fmt.Errorf("engine: bulk build: %w", err)
			}
			stats.Docs++
			stats.Postings += int64(len(p.Terms()))
		}
	}
	// No refresh signatures: the empty meta segment Save(dir, nil)
	// writes keeps the directory byte-identical to Save's.
	if _, err := w.Commit(workers, nil, nil, nil, nil); err != nil {
		return stats, fmt.Errorf("engine: bulk build: %w", err)
	}
	stats.Runs = w.Runs()
	return stats, nil
}
