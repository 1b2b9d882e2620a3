// Command deepsearch builds a synthetic deep web, surfaces it into a
// search index, and serves it over HTTP: an HTML page at / and the
// versioned JSON API of internal/api under /v1. Deep-web documents are
// served "like any other page" (§3.2); each result notes the form that
// surfaced it.
//
//	GET  /v1/search?q=...&k=10&offset=0&annotated=true&host=...
//	GET  /v1/semantics/{synonyms,autocomplete,values,properties,tables}
//	GET  /v1/admin/stats
//	POST /v1/admin/reload
//	GET  /healthz
//
// The §6 semantic services are served on the same front end whenever
// the process has the tables: a built world deep-crawls and aggregates
// them at startup, and a -snapshot directory supplies them from its
// tables segment. A snapshot without one (`deepcrawl -bulk -out`)
// serves no /v1/semantics group; those paths answer the shared 404
// envelope. Semantics load once at startup; a reload swaps the index
// only.
//
// The server carries production manners (via internal/httpx):
// read/write timeouts and graceful shutdown on SIGINT/SIGTERM.
//
// With -snapshot it skips world building and surfacing entirely and
// warm-starts from a directory written by `deepcrawl -out`, answering
// its first query in milliseconds. Startup logs each phase's duration
// either way, so the warm-start win is visible in the logs. A running
// -snapshot server also reloads on SIGHUP or POST /v1/admin/reload:
// after `deepcrawl -refresh` replaces the snapshot (segment writes are
// atomic), the reload swaps the new index in behind an atomic pointer
// — in-flight queries finish against the engine they started on, new
// queries see the fresh one, and a failed reload keeps the current
// index serving. /v1/admin/stats (generation id + last-reload time) is
// how an operator verifies the swap happened.
//
// Search responses are served through a generation-keyed result cache
// (-cache N entries, 0 disables); X-Cache on each /v1/search response
// says HIT or MISS, and /v1/admin/stats exposes the running counters.
// -debugaddr mounts net/http/pprof on its own localhost listener for
// profiling under load.
//
// Usage:
//
//	deepsearch [-addr :8080] [-sites N] [-rows N] [-seed N] [-workers N]
//	deepsearch [-addr :8080] [-snapshot DIR] [-cache 4096] [-debugaddr localhost:6060]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"deepweb/internal/api"
	"deepweb/internal/cliutil"
	"deepweb/internal/core"
	"deepweb/internal/engine"
	"deepweb/internal/htmlx"
	"deepweb/internal/httpx"
	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/webgen"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	sites := flag.Int("sites", 1, "sites per domain")
	rows := flag.Int("rows", 300, "rows per site")
	seed := flag.Int64("seed", 42, "world seed")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent surfacing workers")
	annotated := flag.Bool("annotated", false, "rank the HTML page with §5.1 annotations (the /v1 API takes ?annotated=true per request)")
	snapshot := flag.String("snapshot", "", "warm-start from a snapshot directory (skips build + surfacing)")
	cacheCap := flag.Int("cache", 4096, "result cache capacity in entries (0 disables caching)")
	debugAddr := flag.String("debugaddr", "", "listen address for the pprof debug mux (e.g. localhost:6060; empty disables)")
	flag.Parse()
	log.SetFlags(0)
	// Fail bad sizes loudly at startup — a zero or negative world size
	// used to surface as an obscure failure deep inside world building.
	cliutil.RequirePositive("deepsearch",
		cliutil.IntFlag{Name: "-sites", Value: *sites},
		cliutil.IntFlag{Name: "-rows", Value: *rows},
		cliutil.IntFlag{Name: "-workers", Value: *workers},
	)

	begin := time.Now()
	var e *engine.Engine
	var sem *engine.SemanticStore
	if *snapshot != "" {
		engine.DefaultWorkers = *workers
		start := time.Now()
		var err error
		e, err = engine.Load(*snapshot)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("phase load-snapshot: %d docs (generation %d) from %s in %v",
			e.Index.Len(), e.Generation, *snapshot, time.Since(start).Round(time.Microsecond))
		start = time.Now()
		sem, err = engine.LoadSemantics(*snapshot)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// A bulk-built snapshot carries no tables segment: serve the
			// index without the §6 group.
			log.Printf("phase load-semantics: no tables segment in %s; /v1/semantics disabled", *snapshot)
		case err != nil:
			log.Fatal(err)
		default:
			log.Printf("phase load-semantics: %d tables in %v", len(sem.Tables), time.Since(start).Round(time.Microsecond))
		}
	} else {
		start := time.Now()
		var err error
		e, err = engine.Build(webgen.WorldConfig{Seed: *seed, SitesPerDom: *sites, RowsPerSite: *rows})
		if err != nil {
			log.Fatal(err)
		}
		e.Workers = *workers
		log.Printf("phase build-world: %v", time.Since(start).Round(time.Millisecond))
		start = time.Now()
		e.IndexSurfaceWeb(context.Background())
		log.Printf("phase index-surface-web: %v", time.Since(start).Round(time.Millisecond))
		start = time.Now()
		if _, err := e.Surface(context.Background(), engine.SurfaceRequest{Config: core.DefaultConfig(), FollowNext: 5}); err != nil {
			log.Fatal(err)
		}
		log.Printf("phase surface: %v (%d workers)", time.Since(start).Round(time.Millisecond), *workers)
		start = time.Now()
		sem = e.BuildSemantics(context.Background(), 10000)
		log.Printf("phase crawl-aggregate: %d pages → %d tables in %v",
			sem.PagesCrawled, len(sem.Tables), time.Since(start).Round(time.Millisecond))
	}
	e.EnableResultCache(*cacheCap)
	log.Printf("ready: %d documents indexed, startup %v", e.Index.Len(), time.Since(begin).Round(time.Microsecond))
	httpx.ServeDebug(*debugAddr)

	// Queries resolve the engine through an atomic pointer so a reload
	// (SIGHUP or POST /v1/admin/reload) swaps snapshots without
	// dropping in-flight requests: a request keeps the engine it loaded
	// for its whole lifetime.
	var current atomic.Pointer[engine.Engine]
	current.Store(e)
	var lastReload atomic.Int64 // UnixNano of the last successful swap; 0 = never

	var reload func() error
	if *snapshot != "" {
		reload = func() error {
			start := time.Now()
			ne, err := engine.Load(*snapshot)
			if err != nil {
				log.Printf("reload: %v (keeping current index)", err)
				return err
			}
			// Arm the new engine's cache BEFORE publishing it: the swap
			// must install engine and cache together, so no request ever
			// sees the new index through the old engine's cache (the
			// cache lives on the engine — one atomic store swaps both).
			ne.EnableResultCache(*cacheCap)
			current.Store(ne)
			lastReload.Store(time.Now().UnixNano())
			log.Printf("reload: %d docs (generation %d) from %s in %v",
				ne.Index.Len(), ne.Generation, *snapshot, time.Since(start).Round(time.Microsecond))
			return nil
		}
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				reload()
			}
		}()
	}

	opts := api.Options{
		Engine: func() *engine.Engine { return current.Load() },
		Reload: reload,
		Stats: func(st api.Stats) api.Stats {
			if ns := lastReload.Load(); ns != 0 {
				st.LastReload = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
			}
			return st
		},
	}
	if sem != nil {
		opts.Semantics = sem.Server()
	}
	apiSrv := api.New(opts)

	// The HTML page speaks the same in-query DSL as /v1/search: filter
	// terms typed into the box ("used ford price<10000") become
	// structured predicates, the rest ranks as keywords.
	search := func(r *http.Request, q string, k int) []index.Result {
		text, preds := query.Extract(q)
		resp, err := current.Load().Search(r.Context(), engine.SearchRequest{
			Query: text, K: k, Annotated: *annotated, Filters: preds,
		})
		if err != nil {
			return nil
		}
		return resp.Results
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", apiSrv)
	mux.Handle("/healthz", apiSrv)
	mux.HandleFunc("/", func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			httpx.WriteError(rw, http.StatusNotFound, httpx.CodeNotFound, r.URL.Path+" is not served here")
			return
		}
		q := r.URL.Query().Get("q")
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(rw, `<html><body><h1>deepsearch</h1>
<form action="/" method="get"><input type="text" name="q" value="%s"><input type="submit" value="Search"></form>`,
			htmlx.EscapeAttr(q))
		if q != "" {
			fmt.Fprint(rw, "<ol>")
			for _, hit := range search(r, q, 10) {
				src := ""
				if hit.Source != "" {
					src = " <em>(deep web via " + htmlx.EscapeText(hit.Source) + ")</em>"
				}
				fmt.Fprintf(rw, `<li><a href="%s">%s</a> score %.2f%s</li>`,
					htmlx.EscapeAttr(hit.URL), htmlx.EscapeText(hit.Title), hit.Score, src)
			}
			fmt.Fprint(rw, "</ol>")
		}
		fmt.Fprint(rw, "</body></html>")
	})

	if err := httpx.Serve(context.Background(), *addr, mux); err != nil {
		log.Fatal(err)
	}
}
