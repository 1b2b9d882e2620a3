// Package surface is the offline half of the system: the surfacing
// pipeline (webgen world → webx fetching → core analysis/probing →
// index ingestion) that fills an engine.Engine, and the refresh pass
// that keeps it fresh. The server links internal/engine, not this.
//
// The paper's surfacing is an offline, web-scale process — millions of
// forms analyzed and probed — so each site flows through
//
//	discovery → form analysis/probing → URL generation → fetch → ingest
//
// on a pool of Workers goroutines, one site per worker at a time. All
// stages up to and including fetch parallelize freely (each site talks
// only to its own host); ingestion commits at a single ordered point,
// in site order, so document ids, index contents and every experiment
// metric are identical whatever the worker count or interleaving.
package surface

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"slices"
	"time"

	"deepweb/internal/core"
	"deepweb/internal/coverage"
	"deepweb/internal/engine"
	"deepweb/internal/form"
	"deepweb/internal/index"
	"deepweb/internal/pipe"
	"deepweb/internal/resilient"
	"deepweb/internal/semserv"
	"deepweb/internal/store"
	"deepweb/internal/textutil"
	"deepweb/internal/webgen"
	"deepweb/internal/webtables"
	"deepweb/internal/webx"
)

// Surfacer drives one core.Surfacer per site of a virtual web and
// commits what they surface into the engine it feeds.
type Surfacer struct {
	// Engine serves what the passes committed (see publish).
	Engine *engine.Engine
	Web    *webgen.Web
	Fetch  *webx.Fetcher

	// Workers bounds how many sites Surface analyzes, probes and
	// fetches concurrently. 0 or 1 runs sequentially. Results are
	// identical for every value; Workers only buys wall-clock.
	Workers int

	// Results holds each site's surfacing outcome, keyed by host. A
	// pass's traffic and ingest counts are in the SiteReports that
	// Surface and Refresh return.
	Results map[string]*core.Result

	// siteSignatures records each surfaced site's backing-table content
	// signature at surfacing time — the baseline Refresh diffs against,
	// persisted by Save in the snapshot's meta segment.
	siteSignatures map[string]textutil.Signature

	// base is the transport under the resilient layer (the virtual web,
	// or a wrapper installed with UseTransport); rt, built over it,
	// carries every fetch, and its per-host counters are what per-site
	// outcome reports are computed from.
	base http.RoundTripper
	rt   *resilient.Transport

	ix *index.Builder // what the passes commit to; Engine serves a Freeze of it
}

// New surfaces an existing virtual internet into an empty engine. Its
// Workers start at engine.DefaultWorkers.
func New(web *webgen.Web) *Surfacer {
	ix := index.New()
	s := &Surfacer{
		Engine:         &engine.Engine{Index: ix.Freeze()},
		ix:             ix,
		Web:            web,
		Workers:        engine.DefaultWorkers,
		Results:        map[string]*core.Result{},
		siteSignatures: map[string]textutil.Signature{},
	}
	s.UseTransport(web)
	return s
}

// Build generates a world from the config and wraps it.
func Build(cfg webgen.WorldConfig) (*Surfacer, error) {
	web, err := webgen.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	return New(web), nil
}

// Open loads a snapshot directory written by Save and attaches it to a
// virtual web, giving back a surfacer that can refresh it: the index
// comes from store.Load, whose builder the next pass commits to, the
// per-site signatures from the meta segment, and the web provides the
// live (possibly churned) sites to diff against. This is the
// `deepcrawl -refresh` path: rebuild the world, apply the delta,
// refresh the snapshot. A snapshot without a meta segment opens with
// no signatures, so every site counts as changed on the next Refresh;
// a damaged one is rejected.
func Open(web *webgen.Web, dir string) (*Surfacer, error) {
	meta, err := store.ReadMeta(store.MetaPath(dir))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("surface: open meta: %w", err)
	}
	ix, hdr, err := store.Load(dir, engine.DefaultWorkers)
	if err != nil {
		return nil, err
	}
	s := New(web)
	s.ix, s.Engine = ix, &engine.Engine{Index: ix.Freeze(), Generation: hdr.SnapID}
	if meta != nil {
		for _, m := range meta.Sites {
			s.siteSignatures[m.Host] = textutil.Signature(m.Signature)
		}
	}
	return s, nil
}

// publish makes b the builder passes commit to, and Engine a new engine
// over b.Freeze(), re-arming the old one's result cache, if any, empty.
func (s *Surfacer) publish(b *index.Builder) {
	e := &engine.Engine{Index: b.Freeze()}
	if cs, ok := s.Engine.CacheStats(); ok {
		e.EnableResultCache(cs.Capacity)
	}
	s.ix, s.Engine = b, e
}

// Save writes the engine's index to dir (engine.Engine.Save) with a
// meta segment carrying the per-site content signatures Refresh diffs
// against. It must not run concurrently with Surface or Refresh.
func (s *Surfacer) Save(dir string) error {
	sites := make([]store.SiteMeta, 0, len(s.siteSignatures))
	for host, sig := range s.siteSignatures {
		sites = append(sites, store.SiteMeta{Host: host, Signature: uint64(sig)})
	}
	return s.Engine.Save(dir, sites)
}

// UseTransport replaces the transport fetch traffic flows through —
// normally the virtual web itself; tests and `deepcrawl -chaos`
// interpose a webgen.Chaos here — and rebuilds the resilient fetch
// stack over it.
func (s *Surfacer) UseTransport(rt http.RoundTripper) {
	s.base = rt
	s.rt = resilient.NewTransport(rt, resilient.Defaults())
	s.Fetch = newFetcher(s.rt)
}

// newFetcher builds a fetcher over rt whose every logical fetch (all
// attempts plus backoff) ends after 30 s. rt, a resilient transport,
// caps the body.
func newFetcher(rt http.RoundTripper) *webx.Fetcher {
	f := webx.NewFetcher(rt)
	f.Timeout = 30 * time.Second
	return f
}

// IndexSurfaceWeb crawls the pre-surfacing web (no query URLs) and
// indexes it — the baseline a search engine has before deep-web
// surfacing, then publishes it. A canceled ctx stops the crawl; pages
// fetched before the cancellation are still indexed.
func (s *Surfacer) IndexSurfaceWeb(ctx context.Context) int {
	c := &webx.Crawler{Fetcher: s.Fetch}
	n := 0
	for _, p := range c.Crawl(ctx, "http://"+webgen.HubHost+"/") {
		if _, added := s.ix.Add(index.Doc{URL: p.URL, Title: p.Title(), Text: p.Text()}); added {
			n++
		}
	}
	s.publish(s.ix)
	return n
}

// BuildSemantics deep-crawls the world — following query links so
// record pages (with tables) are reached, the post-surfacing state of
// the index — and aggregates every HTML table into an ACSDb and a value
// store. maxPages bounds the crawl (0 = unlimited); a canceled ctx
// stops the crawl and builds the stores from the pages fetched so far.
func (s *Surfacer) BuildSemantics(ctx context.Context, maxPages int) *semserv.Server {
	c := &webx.Crawler{Fetcher: s.Fetch, FollowQuery: true, MaxPages: maxPages}
	pages := c.Crawl(ctx, "http://"+webgen.HubHost+"/")
	raw := webtables.ExtractFromPages(pages)
	return semserv.New(len(pages), len(raw), webtables.QualityFilter(raw))
}

// SurfaceRequest configures one Surface pass over the world's sites.
// The zero Filter surfaces unfiltered; set it to apply the §5.2
// index-admission band to fetched pages.
type SurfaceRequest struct {
	// Config drives form analysis and probing (budgets, thresholds).
	Config core.Config
	// FollowNext walks up to this many "next page" continuations per
	// surfaced URL at ingestion time.
	FollowNext int
	// Filter is the §5.2 index-admission criterion; the zero value
	// admits every fetched page.
	Filter core.IngestFilter
}

// SiteStatus is a surfaced site's outcome class.
type SiteStatus int

const (
	// SiteOK: the site surfaced cleanly; its results and signature are
	// committed.
	SiteOK SiteStatus = iota
	// SiteDegraded: the site committed, but some fetches failed even
	// after retries (partial corpus). Its signature is left unrecorded
	// so the next Refresh re-drives the whole site and heals it.
	SiteDegraded
	// SiteFailedTransient: the site failed with a retryable class of
	// error (timeouts, 5xx, open circuit); nothing committed, signature
	// unrecorded — the next Refresh retries it from scratch.
	SiteFailedTransient
	// SiteFailedPermanent: the site failed definitively (4xx homepage,
	// oversized body); retrying cannot help.
	SiteFailedPermanent
)

func (s SiteStatus) String() string {
	switch s {
	case SiteDegraded:
		return "degraded"
	case SiteFailedTransient:
		return "failed-transient"
	case SiteFailedPermanent:
		return "failed-permanent"
	default:
		return "ok"
	}
}

// SiteReport is one site's ledger for one pass: its status, the fetch
// stack's counter deltas attributed to it (the surfacer's one-site =
// one-worker = one-host contract makes the attribution exact), and its
// ingestion counts.
//
// Attempts is the site's traffic: every wire try of its analysis,
// probing and ingestion, failed sites included — the one-time
// "off-line analysis" load of §3.2. Under RefreshRequest.PerHostCap it
// also counts the tries the politeness cap answers locally, which
// never reach the host. Refresh's refetch of a site's crawled
// surface-web pages, which runs before the site's pipeline, is not
// counted.
type SiteReport struct {
	Host              string
	Status            SiteStatus
	Attempts          uint64
	Retries           uint64
	Timeouts          uint64
	TransientFailures uint64
	PermanentFailures uint64
	Err               string
	// Ingest is the site's ingestion accounting; Indexed is set at the
	// ordered commit. A failed site's is zero: nothing was committed.
	Ingest core.IngestStats
}

// SurfaceResponse reports a Surface pass: per-site outcomes keyed by
// host, and a top-level Degraded flag set when any site is not OK.
type SurfaceResponse struct {
	Sites    map[string]SiteReport
	Degraded bool
}

// anyNotOK reports whether any site's outcome calls for attention.
func anyNotOK(reports map[string]SiteReport) bool {
	for _, r := range reports {
		if r.Status != SiteOK {
			return true
		}
	}
	return false
}

// Surface runs the surfacing pipeline over every site and ingests the
// emitted URLs, attributing each document to its site's form.
//
// Failure semantics: a site that fails is *reported*, not fatal — the
// pass continues, the response carries per-site outcomes, and the
// returned error is nil. Transiently-failed and degraded sites leave no
// signature, so the next Refresh re-drives and heals them. Only the
// context canceling the run returns an error: in-flight sites abort
// between probe submissions, unstarted sites are skipped, the
// ordered-commit loop drains cleanly, and the context's error is
// returned. Sites already committed stay committed — cancellation never
// corrupts the index. The pass ends by publishing what it committed.
func (s *Surfacer) Surface(ctx context.Context, req SurfaceRequest) (SurfaceResponse, error) {
	reports, err := s.surfacePipeline(ctx, s.Web.Sites(), pipelineRun{
		cfg:        req.Config,
		followNext: req.FollowNext,
		filt:       req.Filter,
		fetch:      s.Fetch,
		rt:         s.rt,
		ix:         s.ix,
		commit:     s.commitOutcome,
	})
	s.publish(s.ix)
	return SurfaceResponse{Sites: reports, Degraded: anyNotOK(reports)}, err
}

// siteOutcome is everything one site's pipeline pass produced, held
// until the ordered commit point reaches its position.
type siteOutcome struct {
	host   string
	res    *core.Result
	sink   *stagedSink
	sig    textutil.Signature
	report SiteReport
	err    error
}

// pipelineRun is one surfacing pass's wiring: the analysis config, the
// ingestion knobs, the fetcher the workers issue traffic through (the
// surfacer's own, or a politeness-capped wrapper during Refresh), the
// resilient transport under that fetcher (for per-site counter deltas),
// the index the sites commit into (the sinks dedup against it), and
// the commit hook the ordered drain invokes per successful site.
type pipelineRun struct {
	cfg        core.Config
	followNext int
	filt       core.IngestFilter
	fetch      *webx.Fetcher
	rt         *resilient.Transport
	ix         *index.Builder
	commit     func(*siteOutcome)
}

// surfacePipeline runs the staged pipeline over the given sites and
// drains outcomes through run.commit at the single ordered commit
// point, returning a per-site outcome report keyed by host.
//
// Concurrency contract: a site is handled end-to-end by one worker, and
// every request it issues targets the site's own host, so the resilient
// transport's per-host counter deltas — each site's report — are exact.
// Fetched documents buffer in a stagedSink; the commit loop drains
// outcomes in site order, assigning doc ids and inserting postings.
//
// Failure semantics are Surface's: a failed site is classified
// (transient vs. permanent) and reported, and only run-context
// cancellation aborts. An aborted pass reports only the sites ordered
// before the abort; traffic that other workers issued after it is not
// reported, and only committed results are worker-timing-independent.
//
// Sites are surfaced on up to Workers goroutines (pipe.Ordered, with
// every site read up front, so a slow site holds up no later one's
// start) and their outcomes arrive here in site order; a site started
// after the run context ended reports ctx.Err() instead of surfacing.
// The pool is joined before this returns, and a run whose context
// ended returns its error even when every site finished.
func (s *Surfacer) surfacePipeline(ctx context.Context, sites []*webgen.Site, run pipelineRun) (map[string]SiteReport, error) {
	reports := make(map[string]SiteReport, len(sites))
	outcomes := pipe.Ordered(s.Workers, len(sites), slices.Values(sites), func(site *webgen.Site) *siteOutcome {
		if err := ctx.Err(); err != nil {
			return &siteOutcome{host: site.Spec.Host, err: err}
		}
		return s.surfaceOne(ctx, site, run)
	})
	for out := range outcomes {
		if out.err != nil {
			// Discriminate abort from failure via the run context,
			// not the error value: per-fetch timeouts also surface
			// deadline errors, but only the run context ending
			// means the caller wants out.
			if ctx.Err() != nil {
				return reports, fmt.Errorf("surface %s: %w", out.host, out.err)
			}
			rep := out.report
			rep.Err = out.err.Error()
			if resilient.ClassOf(out.err) == resilient.ClassPermanent {
				rep.Status = SiteFailedPermanent
			} else {
				rep.Status = SiteFailedTransient
				// Whatever signature a prior pass recorded no longer
				// reflects an intact corpus entry; drop it so the
				// next Refresh re-drives this site.
				delete(s.siteSignatures, out.host)
			}
			reports[out.host] = rep
			continue
		}
		run.commit(out)
		if out.report.Status == SiteDegraded {
			// Committed, but with fetch losses: leave the signature
			// unrecorded so the next Refresh heals the gaps.
			delete(s.siteSignatures, out.host)
		}
		reports[out.host] = out.report
	}
	return reports, ctx.Err()
}

// commitOutcome is the standard bookkeeping for one successfully
// surfaced site: drain its sink into the index, count what it indexed
// in the site's report, and record its result and content signature.
func (s *Surfacer) commitOutcome(out *siteOutcome) {
	s.Results[out.host] = out.res
	out.report.Ingest.Indexed = out.sink.commit()
	s.siteSignatures[out.host] = out.sig
}

// surfaceOne runs the per-site stages: discovery + form analysis +
// probing + URL generation (core.Surfacer), then fetch of every emitted
// URL into a buffering sink. No shared index state is written. The
// resilient transport's per-host counter delta becomes the site's
// report, on failure too — the traffic was issued.
func (s *Surfacer) surfaceOne(ctx context.Context, site *webgen.Site, run pipelineRun) *siteOutcome {
	host := site.Spec.Host
	before := run.rt.HostStats(host)
	mkReport := func() SiteReport {
		fs := run.rt.HostStats(host)
		return SiteReport{
			Host:              host,
			Attempts:          fs.Attempts - before.Attempts,
			Retries:           fs.Retries - before.Retries,
			Timeouts:          fs.Timeouts - before.Timeouts,
			TransientFailures: fs.TransientFailures - before.TransientFailures,
			PermanentFailures: fs.PermanentFailures - before.PermanentFailures,
		}
	}
	cs := core.NewSurfacer(run.fetch, run.cfg)
	res, err := cs.SurfaceSite(ctx, site.HomeURL())
	if err != nil {
		return &siteOutcome{host: host, err: err, report: mkReport()}
	}
	source := host
	if res.Analysis.Form != nil {
		source = res.Analysis.Form.ID
	}
	sink := newStagedSink(run.ix)
	stats := core.IngestURLs(ctx, run.fetch, sink, source, res.URLs, run.followNext, run.filt)
	// Ingestion swallows cancellation (its partial stats are still
	// real); the pipeline must not — a site whose fetches were cut
	// short may not be committed as complete.
	if err := ctx.Err(); err != nil {
		return &siteOutcome{host: host, err: err, report: mkReport()}
	}
	rep := mkReport()
	rep.Ingest = stats
	if rep.TransientFailures > 0 {
		// Some logical fetches failed even after retries: the committed
		// corpus for this site has holes.
		rep.Status = SiteDegraded
	}
	return &siteOutcome{
		host:   host,
		res:    res,
		sink:   sink,
		sig:    site.TableSignature(),
		report: rep,
	}
}

// SiteCoverage returns ground-truth coverage of one surfaced site.
func (s *Surfacer) SiteCoverage(host string) coverage.Exact {
	site, res := s.Web.Site(host), s.Results[host]
	if site == nil || res == nil {
		return coverage.Exact{}
	}
	return coverage.ExactOf(site, res.URLs)
}

// SiteDistinctSets counts the distinct ground-truth result sets among
// one surfaced site's URLs — how many genuinely different pages the
// emitted templates retrieve, per the site's oracle.
func (s *Surfacer) SiteDistinctSets(host string) int {
	site, res := s.Web.Site(host), s.Results[host]
	if site == nil || res == nil {
		return 0
	}
	return coverage.DistinctResultSets(site, res.URLs)
}

// MeanCoverage averages exact coverage over surfaceable (GET) sites.
func (s *Surfacer) MeanCoverage() float64 {
	var sum float64
	n := 0
	for _, site := range s.Web.Sites() {
		if site.Spec.Method != "get" {
			continue
		}
		sum += s.SiteCoverage(site.Spec.Host).Fraction()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FormOf fetches and parses a site's search form — the mediator
// registration path shared by experiments and examples.
func FormOf(ctx context.Context, fetch *webx.Fetcher, site *webgen.Site) (*form.Form, error) {
	page, err := fetch.GetCtx(ctx, site.FormURL())
	if err != nil {
		return nil, err
	}
	decls := page.Forms()
	if len(decls) == 0 {
		return nil, fmt.Errorf("no form on %s", site.FormURL())
	}
	base, err := url.Parse(page.URL)
	if err != nil {
		return nil, err
	}
	return form.FromDecl(base, decls[0], 0)
}
