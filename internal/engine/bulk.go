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
// snapshot without building an index. BulkBuild tokenizes a stream on
// the given workers and hands every document to the same store.Writer
// Save uses, which streams the docs segment to disk, interns the
// annotations into the schema tables of the columns segment and keeps
// the postings in RAM until Commit writes the per-shard segments. Rows
// never stay resident; the postings and the tables do, as a server of
// the snapshot (engine.Load) holds them too.
//
// The writer places every term, whichever path it came in by, so the
// directory BulkBuild writes is byte-identical — every file — to Save
// of an index holding the same stream, regardless of worker count or
// process (property-tested).

// BulkSource streams documents in a deterministic order. Next returns
// the next document, its annotations (nil for none), and ok=false when
// the stream is exhausted. An annotation map must not change once
// returned: the writer interns it later, on a goroutine of its own.
// bulkgen.Source satisfies this.
type BulkSource interface {
	Next() (d index.Doc, anns map[string]string, ok bool)
}

// DefaultBulkBatch is how many documents BulkBuild tokenizes at a time.
const DefaultBulkBatch = 4096

// BulkBuildOptions configures BulkBuild.
type BulkBuildOptions struct {
	// Docs is the exact stream length; the docs segment header needs
	// it up front. Required.
	Docs int
	// Shards is the postings-shard count of the snapshot (default
	// index.DefaultShards).
	Shards int
	// Workers parallelizes tokenization and the per-shard encode of
	// the postings (default 1).
	Workers int
}

// BulkStats reports one bulk build.
type BulkStats struct {
	Docs     int   // documents written
	Runs     int   // always 0: the build writes no run files
	Postings int64 // term postings produced
}

// nextBatch appends documents of src, and their annotations in step,
// to docs and anns until docs holds DefaultBulkBatch.
func nextBatch(src BulkSource, docs []index.Doc, anns []map[string]string) ([]index.Doc, []map[string]string) {
	for len(docs) < DefaultBulkBatch {
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
// place. On error the partial build's temp files are swept; a stale
// docs/postings segment from an earlier completed build may remain,
// exactly as an interrupted Save would leave one.
func BulkBuild(ctx context.Context, src BulkSource, dir string, opts BulkBuildOptions) (BulkStats, error) {
	var stats BulkStats
	if opts.Docs <= 0 {
		return stats, fmt.Errorf("engine: bulk build: Docs must be the exact stream length, got %d", opts.Docs)
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = index.DefaultShards
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	w, err := store.NewWriter(dir, shards, opts.Docs)
	if err != nil {
		return stats, fmt.Errorf("engine: bulk build: %w", err)
	}
	defer w.Abort()

	docs := make([]index.Doc, 0, DefaultBulkBatch)
	anns := make([]map[string]string, 0, DefaultBulkBatch)
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		docs, anns = nextBatch(src, docs[:0], anns[:0])
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
	return stats, nil
}
