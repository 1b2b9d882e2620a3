package main

// The bulk-build path: -bulk N -out DIR sidesteps surfacing entirely
// and streams N generated records through the engine's bulk snapshot
// build, printing throughput and peak heap. It
// is the hand tool for producing a large snapshot to serve or inspect;
// the measured, gated numbers for the same path come from deepbench
// (bench/README.md).

import (
	"context"
	"fmt"
	"log"
	"time"

	"deepweb/internal/bulkgen"
	"deepweb/internal/engine"
	"deepweb/internal/memwatch"
)

// runBulk generates a docs-row world, builds it into a snapshot at
// outDir and Load-verifies the result. Zero shards means the engine's
// default.
func runBulk(docs, sites int, seed int64, shards, workers int, outDir string) {
	world, err := bulkgen.NewWorld(bulkgen.Spec{Seed: seed, Docs: docs, Sites: sites})
	if err != nil {
		log.Fatalf("deepcrawl: %v", err)
	}
	fmt.Printf("bulk: %d docs over %d sites (%d workers)\n", docs, world.NumSites(), workers)

	src := world.Source(workers)
	defer src.Close()
	watch := memwatch.Start(10 * time.Millisecond)
	start := time.Now()
	stats, err := engine.BulkBuild(context.Background(), src, outDir, engine.BulkBuildOptions{
		Docs: docs, Shards: shards, Workers: workers,
	})
	elapsed := time.Since(start)
	peak := watch.Stop()
	if err != nil {
		log.Fatalf("deepcrawl: bulk build: %v", err)
	}
	fmt.Printf("bulk: %d docs in %v — %.0f docs/s, peak heap %.1f MB, %d postings\n",
		stats.Docs, elapsed.Round(time.Millisecond), float64(stats.Docs)/elapsed.Seconds(), memwatch.PeakMB(peak),
		stats.Postings)

	// The snapshot must round-trip: a build that cannot Load is a
	// failure now, not at serving time.
	loaded, err := engine.Load(outDir)
	if err != nil {
		log.Fatalf("deepcrawl: built snapshot does not load: %v", err)
	}
	if loaded.Index.Len() != docs {
		log.Fatalf("deepcrawl: snapshot loads %d docs, built %d", loaded.Index.Len(), docs)
	}
	fmt.Printf("bulk: snapshot verified — %d docs load from %s (generation %08x)\n",
		loaded.Index.Len(), outDir, loaded.Generation)
}
