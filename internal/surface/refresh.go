package surface

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"deepweb/internal/core"
	"deepweb/internal/index"
	"deepweb/internal/resilient"
	"deepweb/internal/webgen"
)

// Refresh: the freshness half of the paper's economics. Surfacing is
// an expensive offline pass, but the underlying databases churn —
// listings appear, change and vanish — and re-surfacing the whole web
// to chase a few changed sites wastes exactly the analysis budget the
// paper works to minimize. Refresh re-surfaces only the sites whose
// backing content actually moved, detected by comparing each site's
// current table signature against the one recorded when it was last
// surfaced (persisted in the snapshot meta segment).
//
// For each changed site it retires the site's old documents (surfaced
// result pages and crawled surface-web pages alike) through the
// index's tombstone path, re-runs the full per-site pipeline on the
// worker pool, and commits through the same ordered commit point as
// Surface — so Results, each re-surfaced site's SiteReport, coverage
// and each document's source attribution come out exactly as a
// from-scratch surface of the changed site would produce. When
// tombstones pile past CompactRatio, the index is compacted (and doc
// ids renumbered into canonical URL order).

// RefreshStats summarizes one Refresh pass.
type RefreshStats struct {
	SitesChecked int // sites whose signature was recomputed
	SitesChanged int // sites re-surfaced because it moved
	DocsDeleted  int // documents tombstoned
	DocsAdded    int // documents newly committed
	SurfacePages int // previously crawled surface-web pages refetched
	Compacted    bool
}

// RefreshResponse reports one Refresh pass: the aggregate stats, the
// per-site outcomes of the re-surfaced (changed) sites, and a Degraded
// flag set when any of them is not OK. Failed and degraded sites keep
// no signature, so the next Refresh re-drives them — calling Refresh
// until Degraded is false converges the index to the fault-free corpus
// as long as the faults themselves subside.
type RefreshResponse struct {
	RefreshStats
	SurfaceResponse
}

// RefreshRequest configures one Refresh pass. Config and FollowNext
// mean what they mean on SurfaceRequest; the remaining fields are the
// freshness/cost trade the crawl-scheduling literature frames —
// which sites to check, how much of the original analysis budget a
// re-surface may spend, and how hard a single host may be hit.
type RefreshRequest struct {
	// Config drives the re-surfacing analysis, subject to
	// BudgetFraction below.
	Config core.Config
	// FollowNext is the per-URL paging depth at re-ingestion time.
	FollowNext int
	// Hosts restricts the signature check to these sites; nil checks
	// every site. A listed host with no recorded signature counts as
	// changed.
	Hosts []string
	// Filter re-applies the §5.2 admission band to re-fetched pages, so
	// a filtered world refreshes under the band it was built with.
	Filter core.IngestFilter
	// BudgetFraction scales Config.ProbeBudget for the re-surface: a
	// changed site is already mostly known, so refreshing it should
	// cost a fraction of first-time analysis. 0 means the full budget;
	// otherwise it must lie in (0, 1]. A site that exhausts its scaled
	// budget mid-analysis is treated like a capped one: its signature
	// is not recorded, so the next Refresh re-drives it rather than
	// committing the shrunken corpus as fully refreshed.
	BudgetFraction float64
	// PerHostCap bounds the total requests Refresh may issue against
	// any one host (probes, page fetches and surface-page refetches
	// alike) — the politeness cap that keeps refreshing a big site from
	// hammering it. Past the cap the host answers 429 locally and the
	// site completes with partial results; a truncated site's signature
	// is NOT recorded, so the next Refresh re-drives it and the index
	// converges once budget allows. 0 means uncapped.
	PerHostCap int
}

// Refresh re-surfaces the sites whose content changed since they were
// last surfaced, per req. The context cancels the pass exactly as it
// cancels Surface: committed sites stay committed, and ctx.Err() is
// returned.
func (s *Surfacer) Refresh(ctx context.Context, req RefreshRequest) (RefreshResponse, error) {
	var resp RefreshResponse
	st := &resp.RefreshStats
	cfg := req.Config
	if req.BudgetFraction < 0 || req.BudgetFraction > 1 {
		return resp, fmt.Errorf("surface: refresh: BudgetFraction %v outside [0, 1] (0 = full budget)", req.BudgetFraction)
	}
	if req.BudgetFraction > 0 {
		if cfg.ProbeBudget = int(float64(cfg.ProbeBudget) * req.BudgetFraction); cfg.ProbeBudget < 1 {
			cfg.ProbeBudget = 1
		}
	}
	fetch := s.Fetch
	runRT := s.rt
	var capped *hostCapTransport
	if req.PerHostCap > 0 {
		// The cap sits *under* the resilient layer, so retries count
		// against it: the cap bounds real request pressure on the host,
		// and a retry is real pressure. Its locally-served 429s carry
		// NoRetryHeader, so the retry loop hands them straight back
		// instead of backing off against our own politeness limiter.
		capped = &hostCapTransport{
			rt:      s.base,
			cap:     req.PerHostCap,
			n:       map[string]int{},
			refused: map[string]bool{},
		}
		runRT = resilient.NewTransport(capped, resilient.Defaults())
		fetch = newFetcher(runRT)
	}

	// Detect churn site by site, in host order.
	var changed []*webgen.Site
	for _, site := range s.Web.Sites() {
		host := site.Spec.Host
		if req.Hosts != nil && !slices.Contains(req.Hosts, host) {
			continue
		}
		st.SitesChecked++
		sig := site.TableSignature()
		if old, ok := s.siteSignatures[host]; ok && old == sig {
			continue
		}
		changed = append(changed, site)
	}
	if len(changed) == 0 {
		return resp, nil
	}
	st.SitesChanged = len(changed)

	// One pass over the live corpus finds the changed sites' documents,
	// by the index's host column. Their *surfaced* documents are retired before any
	// worker fetches: the sinks' dedup consults the shared index, and a
	// stale entry would make re-ingestion skip the very pages being
	// refreshed. Crawled surface-web pages (Source == "") are NOT
	// retired here — they cannot collide with surfaced URLs (the crawl
	// never follows query URLs), and deferring their delete+refetch to
	// the commit step keeps a failed pass recoverable: if a site's
	// pipeline errors, its surface pages are merely stale, not gone,
	// and the still-mismatched signature re-drives them next Refresh.
	// Ids stay valid for the whole pass: nothing before the final
	// compaction renumbers them.
	surfaceIDs := make(map[string][]int, len(changed))
	for _, site := range changed {
		surfaceIDs[site.Spec.Host] = nil
	}
	var retire []int
	s.Engine.Index.ForEachLive(func(id int, d index.Doc, host string) {
		if _, ok := surfaceIDs[host]; !ok {
			return
		}
		if d.Source == "" {
			surfaceIDs[host] = append(surfaceIDs[host], id)
		} else {
			retire = append(retire, id)
		}
	})
	for _, id := range retire {
		if s.Engine.Index.Delete(id) {
			st.DocsDeleted++
		}
	}

	// Re-surface on the shared pipeline. At each site's commit point
	// the old surface-web pages are swapped for freshly fetched ones
	// before the sink drains, mirroring a from-scratch run where the
	// crawl indexes them ahead of surfacing. Refetches go through the
	// same (possibly capped) fetcher as the workers' traffic, so
	// PerHostCap covers every request of the pass.
	reports, err := s.surfacePipeline(ctx, changed, pipelineRun{
		cfg:        cfg,
		followNext: req.FollowNext,
		filt:       req.Filter,
		fetch:      fetch,
		rt:         runRT,
		commit: func(out *siteOutcome) {
			for _, id := range surfaceIDs[out.host] {
				u := s.Engine.Index.Doc(id).URL
				if s.Engine.Index.Delete(id) {
					st.DocsDeleted++
				}
				page, ferr := fetch.GetCtx(ctx, u)
				if ferr != nil || page.Status != 200 {
					// Distinguish "the page is gone" (a definitive
					// non-retryable status: its tombstone stands) from
					// "the fetch failed transiently" — the latter must
					// mark the site degraded, or a flaky refetch would
					// silently lose a surface page the world still has.
					transientLoss := ferr != nil && resilient.ClassOf(ferr) == resilient.ClassTransient ||
						ferr == nil && resilient.RetryableStatus(page.Status)
					if transientLoss && out.report.Status == SiteOK {
						out.report.Status = SiteDegraded
					}
					continue
				}
				if _, added := s.Engine.Index.Add(index.Doc{URL: u, Title: page.Title(), Text: page.Text()}); added {
					st.SurfacePages++
					st.DocsAdded++
				}
			}
			s.commitOutcome(out)
			st.DocsAdded += out.report.Ingest.Indexed
			// A site whose pass was truncated — by the politeness cap,
			// or by exhausting a deliberately reduced probe budget — is
			// incomplete: leave it with no recorded signature (= always
			// changed), so the next Refresh re-drives it and the index
			// converges on the full re-surface once budget allows.
			truncated := capped != nil && capped.refusedAny(out.host)
			if req.BudgetFraction > 0 && req.BudgetFraction < 1 &&
				out.res != nil && out.res.ProbesUsed >= cfg.ProbeBudget {
				truncated = true
			}
			if truncated {
				delete(s.siteSignatures, out.host)
			}
		},
	})
	resp.Sites = reports
	resp.Degraded = anyNotOK(reports)
	if err != nil {
		return resp, err
	}

	if s.CompactRatio > 0 && s.Engine.Index.TombstoneRatio() >= s.CompactRatio {
		s.Engine.Index.Compact()
		st.Compacted = true
	}
	return resp, nil
}

// hostCapTransport enforces RefreshRequest.PerHostCap: at most cap
// requests per host reach the underlying transport during one Refresh
// pass; every request past the cap is answered locally with 429 Too
// Many Requests. The probe and ingest layers already treat a non-200
// as a per-submission failure, so a capped site degrades to partial
// results instead of aborting the pass — and the host never sees the
// excess traffic, which is the point of a politeness cap.
type hostCapTransport struct {
	rt  http.RoundTripper
	cap int

	mu      sync.Mutex
	n       map[string]int  // per-host requests forwarded so far
	refused map[string]bool // hosts that have had a request refused
}

// refusedAny reports whether the cap ever refused a request to host —
// i.e. the host's refresh pass is incomplete.
func (t *hostCapTransport) refusedAny(host string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.refused[host]
}

func (t *hostCapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	over := t.n[host] >= t.cap
	if !over {
		t.n[host]++
	} else {
		t.refused[host] = true
	}
	t.mu.Unlock()
	if over {
		return &http.Response{
			Status:     "429 Too Many Requests",
			StatusCode: http.StatusTooManyRequests,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{resilient.NoRetryHeader: []string{"politeness-cap"}},
			Body:       io.NopCloser(strings.NewReader("per-host refresh cap reached")),
			Request:    req,
		}, nil
	}
	return t.rt.RoundTrip(req)
}
