// Command semserver builds the §6 semantic server: it crawls a
// synthetic web (following links into record pages), aggregates HTML
// tables into an ACSDb and a value store, and serves the semantic
// services over HTTP JSON through the versioned /v1 surface shared
// with deepsearch:
//
//	GET /v1/semantics/synonyms?attr=make
//	GET /v1/semantics/autocomplete?attrs=make
//	GET /v1/semantics/values?attr=city
//	GET /v1/semantics/properties?entity=seattle
//	GET /v1/semantics/tables?q=population
//	GET /v1/admin/stats
//	GET /healthz
//
// The server carries production manners (via internal/httpx):
// read/write timeouts and graceful shutdown on SIGINT/SIGTERM.
//
// With -snapshot it warm-starts from the tables segment of a directory
// written by `deepcrawl -out`, skipping the deep crawl. Startup logs
// each phase's duration (build/crawl vs load vs listen) either way, so
// the warm-start win is visible in the logs.
//
// Usage:
//
//	semserver [-addr :8081] [-sites N] [-rows N] [-seed N]
//	semserver [-addr :8081] [-snapshot DIR] [-debugaddr localhost:6061]
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"deepweb/internal/api"
	"deepweb/internal/cliutil"
	"deepweb/internal/engine"
	"deepweb/internal/httpx"
	"deepweb/internal/webgen"
)

func main() {
	addr := flag.String("addr", ":8081", "listen address")
	sites := flag.Int("sites", 2, "sites per domain")
	rows := flag.Int("rows", 150, "rows per site")
	seed := flag.Int64("seed", 42, "world seed")
	snapshot := flag.String("snapshot", "", "warm-start from a snapshot directory (skips build + crawl)")
	debugAddr := flag.String("debugaddr", "", "listen address for the pprof debug mux (e.g. localhost:6061; empty disables)")
	flag.Parse()
	log.SetFlags(0)
	cliutil.RequirePositive("semserver",
		cliutil.IntFlag{Name: "-sites", Value: *sites},
		cliutil.IntFlag{Name: "-rows", Value: *rows},
	)

	begin := time.Now()
	var sem *engine.SemanticStore
	if *snapshot != "" {
		start := time.Now()
		var err error
		sem, err = engine.LoadSemantics(*snapshot)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("phase load-snapshot: %v (from %s)", time.Since(start).Round(time.Microsecond), *snapshot)
	} else {
		start := time.Now()
		e, err := engine.Build(webgen.WorldConfig{Seed: *seed, SitesPerDom: *sites, RowsPerSite: *rows})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("phase build-world: %v", time.Since(start).Round(time.Millisecond))
		start = time.Now()
		sem = e.BuildSemantics(context.Background(), 10000)
		log.Printf("phase crawl-aggregate: %v", time.Since(start).Round(time.Millisecond))
	}
	log.Printf("aggregated %d pages → %d tables (%d relational), %d schemas, %d attributes",
		sem.PagesCrawled, sem.RawTables, len(sem.Tables), sem.ACS.Schemas, len(sem.ACS.Freq))
	log.Printf("phase listen: serving on %s after %v startup", *addr, time.Since(begin).Round(time.Microsecond))

	httpx.ServeDebug(*debugAddr)
	// The whole surface is the /v1 server: anything it does not route
	// answers the shared 404 envelope.
	if err := httpx.Serve(context.Background(), *addr, api.New(api.Options{Semantics: sem.Server()})); err != nil {
		log.Fatal(err)
	}
}
