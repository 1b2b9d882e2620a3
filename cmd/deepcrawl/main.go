// Command deepcrawl generates a synthetic deep web, runs the surfacing
// engine over every site, and prints a per-site report: recognized
// input types, detected correlations, emitted URLs, exact coverage and
// analysis load. It is the whole pipeline of the paper in one command.
//
// With -out the surfaced world is persisted as a snapshot directory
// (index segments + semantic tables + refresh metadata), which
// deepsearch -snapshot warm-starts from — surface once, serve many
// times.
//
// With -refresh DIR it applies a delta instead of re-surfacing the
// world: the world is rebuilt from the same flags, aged with -churn
// random row mutations spread over its sites, and the snapshot's
// per-site content signatures decide which sites are re-surfaced. The refreshed index
// is built afresh, in the order a from-scratch surface of the churned
// world would commit: unchanged sites' documents are copied, changed
// sites' re-surfaced. The refreshed snapshot is written back to DIR
// (or to -out when given) — when no site changed and the output is DIR,
// the directory is kept as it is —, and a SIGHUP makes a running
// `deepsearch -snapshot` pick it up without restarting.
//
// With -chaos the run goes through a deterministic fault-injecting
// transport (seeded by -chaosseed): hosts flap, rate-limit, reset
// connections, truncate and garble bodies. The resilient fetch stack
// retries and classifies; the report gains a per-site failure table,
// and the exit code is non-zero when any site failed permanently.
//
// With -bulk N -out DIR it skips surfacing and streams N generated
// records (internal/bulkgen) through the bulk snapshot build into DIR,
// reporting docs/sec and peak heap. -bulk
// without -out is a usage error. See bulk.go.
//
// Usage:
//
//	deepcrawl [-sites N] [-rows N] [-seed N] [-workers N] [-naive] [-post N] [-out DIR]
//	deepcrawl [world flags] -refresh DIR [-churn N] [-churnseed N] [-out DIR]
//	deepcrawl [world flags] -chaos [-chaosseed N]
//	deepcrawl -bulk N -out DIR [-bulksites N] [-shards N] [-workers N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"deepweb/internal/cliutil"
	"deepweb/internal/core"
	"deepweb/internal/engine"
	"deepweb/internal/store"
	"deepweb/internal/surface"
	"deepweb/internal/webgen"
)

func main() {
	sites := flag.Int("sites", 1, "sites per domain")
	rows := flag.Int("rows", 300, "rows per site")
	seed := flag.Int64("seed", 42, "world seed")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent surfacing workers")
	naive := flag.Bool("naive", false, "disable all semantics (ablation arm)")
	post := flag.Int("post", 0, "make one in N sites POST-only (0 = none)")
	out := flag.String("out", "", "write a snapshot of the surfaced world (with -bulk: of the generated records) to this directory")
	refresh := flag.String("refresh", "", "refresh an existing snapshot directory instead of surfacing from scratch")
	churn := flag.Int("churn", 5, "with -refresh: random row mutations spread over the world's sites before refreshing")
	churnSeed := flag.Int64("churnseed", 1, "with -refresh: seed of the churn mutation stream")
	refreshBudget := flag.Float64("refreshbudget", 0, "with -refresh: probe-budget fraction (0,1] for re-surfacing a changed site (0 = full budget)")
	hostCap := flag.Int("hostcap", 0, "with -refresh: max requests per host during the refresh pass (0 = uncapped)")
	chaos := flag.Bool("chaos", false, "inject deterministic per-host faults (flaps, 5xx, 429s, resets, truncation, garbling)")
	chaosSeed := flag.Int64("chaosseed", 1, "with -chaos: seed of the fault streams")
	bulk := flag.Int("bulk", 0, "with -out DIR: build a snapshot of this many generated records instead of surfacing (0 = off)")
	bulkSites := flag.Int("bulksites", 0, "with -bulk: spread records over this many sites (0 = one per vertical)")
	bulkShards := flag.Int("shards", 0, "with -bulk: postings-segment count of the built snapshot (0 = default)")
	flag.Parse()
	log.SetFlags(0)
	// Fail bad sizes loudly at startup — a zero or negative world size
	// used to surface as an obscure failure deep inside world building.
	cliutil.RequirePositive("deepcrawl",
		cliutil.IntFlag{Name: "-sites", Value: *sites},
		cliutil.IntFlag{Name: "-rows", Value: *rows},
		cliutil.IntFlag{Name: "-workers", Value: *workers},
	)
	// Surfacing, Save and Load all run on this many workers.
	engine.DefaultWorkers = *workers
	if *refreshBudget < 0 || *refreshBudget > 1 {
		fmt.Fprintf(os.Stderr, "deepcrawl: -refreshbudget must lie in [0, 1], 0 = full budget (got %v)\n\n", *refreshBudget)
		flag.Usage()
		os.Exit(2)
	}

	if *bulk > 0 {
		if *out == "" {
			fmt.Fprintf(os.Stderr, "deepcrawl: -bulk needs -out DIR: the bulk build writes a snapshot\n\n")
			flag.Usage()
			os.Exit(2)
		}
		runBulk(*bulk, *bulkSites, *seed, *bulkShards, *workers, *out)
		return
	}

	cfg := core.DefaultConfig()
	if *naive {
		cfg = core.NaiveConfig()
	}
	worldCfg := webgen.WorldConfig{
		Seed: *seed, SitesPerDom: *sites, RowsPerSite: *rows, PostFraction: *post,
	}

	if *refresh != "" {
		runRefresh(worldCfg, surface.RefreshRequest{
			Config:         cfg,
			FollowNext:     3,
			BudgetFraction: *refreshBudget,
			PerHostCap:     *hostCap,
		}, *refresh, *out, *churn, *churnSeed)
		return
	}

	e, err := surface.Build(worldCfg)
	if err != nil {
		log.Fatal(err)
	}
	var storm *webgen.Chaos
	if *chaos {
		storm = webgen.NewChaos(e.Web, *chaosSeed)
		hosts := make([]string, 0, len(e.Web.Sites()))
		for _, site := range e.Web.Sites() {
			hosts = append(hosts, site.Spec.Host)
		}
		storm.ApplyDefaultProfiles(hosts)
		e.UseTransport(storm)
		fmt.Printf("chaos: fault injection armed over %d hosts (seed %d)\n", len(hosts), *chaosSeed)
	}
	fmt.Printf("surfacing %d sites (%d rows each, %d workers, naive=%v)\n\n",
		len(e.Web.Sites()), *rows, *workers, *naive)
	if *out != "" {
		// Index the surface web too, so the snapshot covers crawled
		// pages as well as surfaced ones, and first: the order
		// surface.Refresh rebuilds a snapshot in.
		e.IndexSurfaceWeb(context.Background())
	}
	resp, err := e.Surface(context.Background(), surface.SurfaceRequest{Config: cfg, FollowNext: 3})
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SITE\tURLS\tSETS\tCOVERAGE\tPROBES\tTYPED\tRANGES\tDBSEL\tNOTE")
	hosts := make([]string, 0, len(e.Results))
	for h := range e.Results {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	totalDocs := 0
	for _, host := range hosts {
		res := e.Results[host]
		note := ""
		if res.Analysis.PostOnly {
			note = "POST-only: not surfaceable"
		}
		cov := e.SiteCoverage(host)
		totalDocs += len(res.URLs)
		// SETS: distinct ground-truth result sets the emitted URLs
		// retrieve — how much of URLS is genuinely different content.
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f%%\t%d\t%d\t%d\t%v\t%s\n",
			host, len(res.URLs), e.SiteDistinctSets(host), 100*cov.Fraction(), res.ProbesUsed,
			len(res.Analysis.TypedInputs), len(res.Analysis.RangePairs),
			res.Analysis.DBSel != nil, note)
	}
	tw.Flush()
	fmt.Printf("\n%d URLs surfaced, %d documents indexed, mean coverage %.0f%%\n",
		totalDocs, e.Engine.Index.Len(), 100*e.MeanCoverage())

	permanentFailures := printOutcomes(resp.Sites, storm)

	if *out != "" {
		start := time.Now()
		if err := e.Save(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot: index (%d docs, %d shards) saved to %s in %v\n",
			e.Engine.Index.Len(), e.Engine.Index.NumShards(), *out, time.Since(start).Round(time.Millisecond))
		start = time.Now()
		sem := e.BuildSemantics(context.Background(), 10000)
		if err := sem.Save(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot: semantics (%d pages → %d tables) saved in %v\n",
			sem.PagesCrawled, len(sem.Tables), time.Since(start).Round(time.Millisecond))
	}

	if permanentFailures > 0 {
		fmt.Fprintf(os.Stderr, "deepcrawl: %d site(s) failed permanently\n", permanentFailures)
		os.Exit(1)
	}
}

// printOutcomes renders the per-site failure table (sites that retried,
// degraded or failed) and returns how many sites failed permanently.
func printOutcomes(reports map[string]surface.SiteReport, storm *webgen.Chaos) int {
	var troubled []string
	permanent := 0
	for host, rep := range reports {
		if rep.Status == surface.SiteFailedPermanent {
			permanent++
		}
		if rep.Status != surface.SiteOK || rep.Retries > 0 {
			troubled = append(troubled, host)
		}
	}
	if len(troubled) == 0 {
		return permanent
	}
	sort.Strings(troubled)
	fmt.Println("\nper-site fetch outcomes (sites with retries or failures):")
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SITE\tOUTCOME\tATTEMPTS\tRETRIES\tTIMEOUTS\tINJECTED\tERROR")
	for _, host := range troubled {
		rep := reports[host]
		injected := 0
		if storm != nil {
			injected = storm.Injected(host)
		}
		errText := rep.Err
		if len(errText) > 60 {
			errText = errText[:57] + "..."
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			host, rep.Status, rep.Attempts, rep.Retries, rep.Timeouts, injected, errText)
	}
	tw.Flush()
	return permanent
}

// runRefresh rebuilds the world the snapshot was surfaced from, ages
// it with deterministic churn, and re-surfaces only the changed sites.
func runRefresh(worldCfg webgen.WorldConfig, req surface.RefreshRequest, dir, out string, churn int, churnSeed int64) {
	if out == "" {
		out = dir
	}
	web, err := webgen.BuildWorld(worldCfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	e, err := surface.Open(web, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded snapshot: %d docs (generation %d) from %s in %v\n",
		e.Engine.Index.Len(), e.Engine.Generation, dir, time.Since(start).Round(time.Millisecond))

	webgen.Churn(web, churn, churnSeed)
	fmt.Printf("churn: %d row mutations over %d sites (seed %d)\n", churn, len(web.Sites()), churnSeed)

	start = time.Now()
	st, err := e.Refresh(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refresh: %d/%d sites changed, %d docs retired, %d added, %d surface pages refetched in %v\n",
		st.SitesChanged, st.SitesChecked, st.DocsDeleted, st.DocsAdded, st.SurfacePages,
		time.Since(start).Round(time.Millisecond))
	if n := printOutcomes(st.Sites, nil); n > 0 {
		fmt.Fprintf(os.Stderr, "deepcrawl: %d site(s) failed permanently during refresh\n", n)
		os.Exit(1)
	}

	start = time.Now()
	if st.SitesChanged > 0 || !sameDir(dir, out) {
		if err := e.Save(out); err != nil {
			log.Fatal(err)
		}
	} else if _, err := os.Stat(store.TablesPath(out)); err == nil {
		// No site changed: the directory already holds this snapshot.
		fmt.Printf("snapshot: no site changed, %s kept as it is (%d docs)\n", out, e.Engine.Index.Len())
		return
	}
	sem := e.BuildSemantics(context.Background(), 10000)
	if err := sem.Save(out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d docs + %d semantic tables saved to %s in %v\n",
		e.Engine.Index.Len(), len(sem.Tables), out, time.Since(start).Round(time.Millisecond))
	fmt.Println("signal a running `deepsearch -snapshot` with SIGHUP to pick it up")
}

// sameDir reports whether paths a and b name one existing directory.
func sameDir(a, b string) bool {
	fa, err := os.Stat(a)
	if err != nil {
		return false
	}
	fb, err := os.Stat(b)
	return err == nil && os.SameFile(fa, fb)
}
