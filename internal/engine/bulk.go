package engine

import (
	"context"
	"fmt"
	"sync"

	"deepweb/internal/index"
	"deepweb/internal/store"
)

// Bulk builds: the path that lets a million-document world become a
// snapshot without building an index. BulkBuild is one ordered
// pipeline: a reader goroutine cuts the stream into batches, workers
// goroutines tokenize the next batches while the calling goroutine
// hands this one, in stream order, to the same store.Writer Save uses,
// which streams the docs segment to disk, interns the annotations into
// the schema tables of the columns segment and keeps the postings in
// RAM until Commit writes the per-shard segments. Rows never stay
// resident; the postings and the tables do, as a server of the
// snapshot (engine.Load) holds them too.
//
// The writer places every term, whichever path it came in by, so the
// directory BulkBuild writes is byte-identical — every file — to Save
// of an index holding the same stream, regardless of worker count or
// process (property-tested).

// BulkSource streams documents in a deterministic order. Next returns
// the next document, its annotations (nil for none), and ok=false when
// the stream is exhausted; BulkBuild calls it on one goroutine, never
// after returning. An annotation map must not change once returned:
// the writer interns it later, on a goroutine of its own.
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

// batch is up to DefaultBulkBatch consecutive documents of a stream
// and their annotations, tokenized into ps once ready is closed.
type batch struct {
	docs  []index.Doc
	anns  []map[string]string
	ps    []*index.Prepared
	ready chan struct{}
}

// tokenized returns src's batches in stream order, each published
// before a tokenizer takes it; the buffer of workers, plus the batch
// being read, bounds the lookahead at workers+1. The channel closes
// once src is exhausted or ctx is done; wg counts the goroutines.
func tokenized(ctx context.Context, src BulkSource, workers int, wg *sync.WaitGroup) <-chan *batch {
	order, jobs := make(chan *batch, workers), make(chan *batch)
	wg.Add(1 + workers)
	for range workers {
		go func() {
			defer wg.Done()
			for b := range jobs {
				b.ps = make([]*index.Prepared, len(b.docs))
				for i, d := range b.docs {
					b.ps[i] = index.Prepare(d)
				}
				close(b.ready)
			}
		}()
	}
	go func() {
		defer wg.Done()
		defer close(jobs)
		defer close(order)
		for ctx.Err() == nil {
			b := &batch{docs: make([]index.Doc, 0, DefaultBulkBatch), anns: make([]map[string]string, 0, DefaultBulkBatch), ready: make(chan struct{})}
			for len(b.docs) < DefaultBulkBatch {
				d, a, ok := src.Next()
				if !ok {
					break
				}
				b.docs, b.anns = append(b.docs, d), append(b.anns, a)
			}
			if len(b.docs) == 0 {
				return
			}
			select {
			case order <- b:
			case <-ctx.Done():
				return
			}
			jobs <- b // every published batch gets tokenized
		}
	}()
	return order
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

	// Every path joins the pipeline, and so stops reading src, first.
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for b := range tokenized(ctx, src, workers, &wg) {
		<-b.ready
		for i, p := range b.ps {
			// A stream longer than opts.Docs fails here, a shorter one
			// at Commit: the writer holds the declared count.
			if err := w.AddPrepared(p, b.anns[i]); err != nil {
				return stats, fmt.Errorf("engine: bulk build: %w", err)
			}
			stats.Docs++
			stats.Postings += int64(len(p.Terms()))
		}
	}
	if err := ctx.Err(); err != nil { // a canceled reader closes the channel early
		return stats, err
	}
	// No refresh signatures: the empty meta segment Save(dir, nil)
	// writes keeps the directory byte-identical to Save's.
	if _, err := w.Commit(workers, nil, nil, nil, nil); err != nil {
		return stats, fmt.Errorf("engine: bulk build: %w", err)
	}
	return stats, nil
}
