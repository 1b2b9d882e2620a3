package engine

import (
	"context"
	"fmt"
	"iter"

	"deepweb/internal/index"
	"deepweb/internal/pipe"
	"deepweb/internal/store"
)

// Bulk builds: the path that lets a million-document world become a
// snapshot without building an index. BulkBuild is one ordered
// pipeline of pipe.Ordered stages: a reader cuts the stream into
// batches, workers goroutines tokenize the next batches, one goroutine
// interns each batch's annotations into the schema tables of the
// columns segment, and the calling goroutine hands the batches, in
// stream order, to the same store.Writer Save uses, which streams the
// docs segment to disk and keeps the postings in RAM until Commit
// writes the per-shard segments. Rows never stay resident; the
// postings and the tables do, as a server of the snapshot (engine.Load)
// holds them too.
//
// The writer places every term, whichever path it came in by, so the
// directory BulkBuild writes is byte-identical — every file — to Save
// of an index holding the same stream, regardless of worker count or
// process (property-tested).

// BulkSource streams documents in a deterministic order. Next returns
// the next document, its annotations (nil for none), and ok=false when
// the stream is exhausted; BulkBuild calls it on one goroutine, never
// after returning. An annotation map must not change once returned:
// it is interned later, on a goroutine of its own.
// bulkgen.Source satisfies this.
type BulkSource interface {
	Next() (d index.Doc, anns map[string]string, ok bool)
}

// DefaultBulkBatch is how many documents a batch of BulkBuild holds:
// the workers+1 batches waiting for the writer hold a few MB.
const DefaultBulkBatch = 1024

// BulkBuildOptions configures BulkBuild.
type BulkBuildOptions struct {
	// Docs is the exact stream length; the docs segment header needs
	// it up front. Required.
	Docs int
	// Shards is the postings-shard count of the snapshot (default
	// index.DefaultShards).
	Shards int
	// Workers is how many goroutines tokenize batches and encode the
	// postings shards at Commit (default 1).
	Workers int
}

// BulkStats reports one bulk build.
type BulkStats struct {
	Docs     int   // documents written
	Runs     int   // always 0: the build writes no run files
	Postings int64 // term postings produced
}

// batch is up to DefaultBulkBatch consecutive documents of a stream,
// the first of them doc id first, with their annotations and, once
// tokenized, their prepared forms.
type batch struct {
	first int
	docs  []index.Doc
	anns  []map[string]string
	ps    []*index.Prepared
}

// batches cuts src into batches, in stream order, until it is
// exhausted or ctx is done.
func batches(ctx context.Context, src BulkSource) iter.Seq[*batch] {
	return func(yield func(*batch) bool) {
		for first := 0; ctx.Err() == nil; first += DefaultBulkBatch {
			b := &batch{first: first, docs: make([]index.Doc, 0, DefaultBulkBatch), anns: make([]map[string]string, 0, DefaultBulkBatch)}
			for len(b.docs) < DefaultBulkBatch {
				d, a, ok := src.Next()
				if !ok {
					break
				}
				b.docs, b.anns = append(b.docs, d), append(b.anns, a)
			}
			if len(b.docs) == 0 || !yield(b) {
				return
			}
		}
	}
}

// tokenize prepares every document of b.
func tokenize(b *batch) *batch {
	b.ps = make([]*index.Prepared, len(b.docs))
	for i, d := range b.docs {
		b.ps[i] = index.Prepare(d)
	}
	return b
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

	// Annotations are interned on a stage of their own, one batch after
	// another, so doc-id order holds and interning overlaps the writer.
	anns := index.NewAnnBuilder()
	intern := func(b *batch) *batch {
		for i, a := range b.anns {
			anns.Annotate(b.first+i, a)
		}
		return b
	}
	for b := range pipe.Ordered(1, 1, pipe.Ordered(workers, workers, batches(ctx, src), tokenize), intern) {
		for _, p := range b.ps {
			// A stream longer than opts.Docs fails here, a shorter one
			// at Commit: the writer holds the declared count.
			if err := w.AddPrepared(p); err != nil {
				return stats, fmt.Errorf("engine: bulk build: %w", err)
			}
			stats.Docs++
			stats.Postings += int64(len(p.Terms()))
		}
	}
	if err := ctx.Err(); err != nil { // a canceled reader ends the stream early
		return stats, err
	}
	// No refresh signatures: the empty meta segment Save(dir, nil)
	// writes keeps the directory byte-identical to Save's.
	cols, schemas := anns.Tables()
	if _, err := w.Commit(workers, nil, nil, cols, schemas); err != nil {
		return stats, fmt.Errorf("engine: bulk build: %w", err)
	}
	return stats, nil
}
