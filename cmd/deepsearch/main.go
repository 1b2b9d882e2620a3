// Command deepsearch serves a snapshot written by `deepcrawl -out` over
// HTTP: an HTML page at / and the versioned JSON API of internal/api
// under /v1. Deep-web documents are served "like any other page"
// (§3.2); each result notes the form that surfaced it. Surfacing is
// offline work: deepcrawl produces the snapshot, deepsearch loads and
// serves it.
//
//	GET  /?q=...&annotated=true
//	GET  /v1/search?q=...&k=10&offset=0&annotated=true&host=...
//	GET  /v1/semantics/{synonyms,autocomplete,values,properties,tables}
//	GET  /v1/admin/stats
//	POST /v1/admin/reload
//	GET  /healthz
//
// The §6 semantic services are served on the same front end when the
// snapshot has a tables segment. A snapshot without one (`deepcrawl
// -bulk -out`) serves no /v1/semantics group; those paths answer the
// shared 404 envelope.
//
// The server carries production manners (via internal/httpx):
// read/write timeouts and graceful shutdown on SIGINT/SIGTERM.
//
// Startup logs each phase's duration (load-snapshot, load-semantics).
// A running server reloads on SIGHUP or POST /v1/admin/reload, one
// reload at a time: after `deepcrawl -refresh` replaces the snapshot
// (segment writes are atomic), the reload loads the new index and §6
// tables and swaps both in behind one atomic pointer — in-flight
// queries finish against what they started on, new queries see the
// fresh snapshot, and a failed reload keeps both current halves
// serving. /v1/admin/stats (generation id + last-reload time) is how
// an operator verifies the swap happened.
//
// Search responses are served through a generation-keyed result cache
// (-cache N entries, 0 disables); X-Cache on each /v1/search response
// says HIT or MISS, and /v1/admin/stats exposes the running counters.
// -debugaddr mounts net/http/pprof on its own localhost listener for
// profiling under load.
//
// Usage:
//
//	deepsearch -snapshot DIR [-addr :8080] [-workers N] [-cache 4096] [-debugaddr localhost:6060]
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
	"deepweb/internal/engine"
	"deepweb/internal/htmlx"
	"deepweb/internal/httpx"
	"deepweb/internal/index"
	"deepweb/internal/query"
	"deepweb/internal/semserv"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent snapshot-load workers")
	snapshot := flag.String("snapshot", "", "serve the snapshot in `DIR`, written by deepcrawl -out (required)")
	cacheCap := flag.Int("cache", 4096, "result cache capacity in entries (0 disables caching)")
	debugAddr := flag.String("debugaddr", "", "listen address for the pprof debug mux (e.g. localhost:6060; empty disables)")
	flag.Parse()
	log.SetFlags(0)
	if *snapshot == "" {
		fmt.Fprintf(os.Stderr, "deepsearch: -snapshot DIR is required (write one with deepcrawl -out DIR)\n\n")
		flag.Usage()
		os.Exit(2)
	}
	cliutil.RequirePositive("deepsearch", cliutil.IntFlag{Name: "-workers", Value: *workers})
	engine.DefaultWorkers = *workers

	begin := time.Now()
	snap, err := load(*snapshot, *cacheCap, "phase")
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ready: %d documents indexed, startup %v", snap.e.Index.Len(), time.Since(begin).Round(time.Microsecond))
	httpx.ServeDebug(*debugAddr)

	// Requests resolve the engine and the §6 store through one atomic
	// pointer so a reload swaps snapshots without dropping in-flight
	// requests: a request keeps what it loaded for its whole lifetime,
	// and no request sees one half of a snapshot beside the other
	// half of another.
	var current atomic.Pointer[served]
	current.Store(snap)

	apiSrv := api.New(api.Options{
		Engine:    func() *engine.Engine { return current.Load().e },
		Semantics: func() *semserv.Server { return current.Load().sem },
		Reload: func() error {
			snap, err := load(*snapshot, *cacheCap, "reload")
			if err != nil {
				log.Printf("reload: %v (keeping current index and tables)", err)
				return err
			}
			current.Store(snap)
			return nil
		},
	})

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			_ = apiSrv.Reload() // opts.Reload logs a failure; the current snapshot keeps serving
		}
	}()

	// The HTML page speaks the same in-query DSL as /v1/search: filter
	// terms typed into the box ("used ford price<10000") become
	// structured predicates, the rest ranks as keywords. Like
	// /v1/search, it ranks with §5.1 annotations when the request says
	// annotated=true (or 1).
	search := func(r *http.Request, q string, k int) []index.Result {
		text, preds := query.Extract(q)
		annotated := r.URL.Query().Get("annotated")
		resp, err := current.Load().e.Search(r.Context(), engine.SearchRequest{
			Query: text, K: k, Annotated: annotated == "true" || annotated == "1", Filters: preds,
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

// served is one snapshot's two halves: the engine over its index and
// the §6 store over its tables segment (nil when it has none).
type served struct {
	e   *engine.Engine
	sem *semserv.Server
}

// load reads both halves of the snapshot in dir and arms the engine's
// result cache, logging each half's duration as a phase of step.
// Nothing is published here: the caller swaps the pair in with one
// store, so the cache goes live with its engine, never in front of
// another, and a failure leaves the serving pair as it was. A corrupt
// tables segment is an error; a missing one serves the index without
// the §6 group.
func load(dir string, cacheCap int, step string) (*served, error) {
	start := time.Now()
	e, err := engine.Load(dir)
	if err != nil {
		return nil, err
	}
	log.Printf("%s load-snapshot: %d docs (generation %d) from %s in %v",
		step, e.Index.Len(), e.Generation, dir, time.Since(start).Round(time.Microsecond))
	start = time.Now()
	sem, err := semserv.Load(dir)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// A bulk-built snapshot carries no tables segment.
		log.Printf("%s load-semantics: no tables segment in %s; /v1/semantics disabled", step, dir)
	case err != nil:
		return nil, err
	default:
		log.Printf("%s load-semantics: %d tables in %v", step, len(sem.Tables), time.Since(start).Round(time.Microsecond))
	}
	e.EnableResultCache(cacheCap)
	return &served{e: e, sem: sem}, nil
}
