package surface

import (
	"context"
	"fmt"
	"io"
	"net/http"
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
// Refresh never edits the index it serves from. It builds a new one in
// the order a from-scratch surface of the churned world commits in:
// first every crawled surface-web page (Source == ""), in old id order,
// refetched when its host is a changed site; then the sites in
// Web.Sites() order, an unchanged site's documents and annotations
// copied from the old index, a changed site re-surfaced on the worker
// pool and committed at its position through the same ordered commit
// point as Surface. The refreshed index therefore equals a from-scratch
// surface of the churned world — doc ids, scores and tie order
// included — and so do Results, each re-surfaced site's SiteReport,
// coverage and every document's source attribution. The new index goes
// into a new engine, which replaces Engine.

// RefreshStats summarizes one Refresh pass.
type RefreshStats struct {
	SitesChecked int // sites whose signature was recomputed
	SitesChanged int // sites re-surfaced because it moved
	DocsDeleted  int // documents of changed sites not carried into the new index
	DocsAdded    int // documents newly committed
	SurfacePages int // previously crawled surface-web pages refetched
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
// freshness/cost trade the crawl-scheduling literature frames — how
// much of the original analysis budget a re-surface may spend, and how
// hard a single host may be hit.
type RefreshRequest struct {
	// Config drives the re-surfacing analysis, subject to
	// BudgetFraction below.
	Config core.Config
	// FollowNext is the per-URL paging depth at re-ingestion time.
	FollowNext int
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
// last surfaced, per req, into a new engine that replaces Engine; a
// result cache on the old engine is re-armed, empty, at its capacity.
// The context cancels the pass exactly as it cancels Surface: the
// changed sites committed before the cancellation stay committed, the
// unchanged sites and the surface-web pages are still all carried
// over, the changed sites the pass never reached hold no surfaced
// documents until the next Refresh, and ctx.Err() is returned.
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
	sites := s.Web.Sites()
	pos := make(map[string]int, len(sites))
	isChanged := map[string]bool{}
	var changed []*webgen.Site
	for i, site := range sites {
		host := site.Spec.Host
		pos[host] = i
		st.SitesChecked++
		if old, ok := s.siteSignatures[host]; ok && old == site.TableSignature() {
			continue
		}
		changed = append(changed, site)
		isChanged[host] = true
	}
	if len(changed) == 0 {
		return resp, nil
	}
	st.SitesChanged = len(changed)

	// One pass over the old index finds the crawled surface-web pages,
	// in id order, and each host's surfaced documents.
	old := s.Engine.Index
	type page struct {
		id   int
		url  string
		host string
	}
	var pages []page
	surfaced := map[string][]int{}
	old.ForEach(func(id int, d index.Doc, host string) {
		if d.Source == "" {
			pages = append(pages, page{id, d.URL, host})
		} else {
			surfaced[host] = append(surfaced[host], id)
		}
	})
	ix := index.NewSharded(old.NumShards())
	var (
		batch []*index.Prepared
		anns  []map[string]string
	)
	carry := func(id int) {
		batch, anns = append(batch, index.Prepare(old.Doc(id))), append(anns, old.AnnotationsOf(id))
	}
	flush := func() {
		ix.AddPreparedBatch(batch, anns)
		batch, anns = nil, nil
	}

	// The surface-web pages go in first, as the crawl indexes them
	// ahead of surfacing, so the sinks' dedup sees them. A changed
	// site's pages are refetched through the same (possibly capped)
	// fetcher as its re-surfacing. A page that is gone (a definitive
	// non-retryable status) is dropped; one whose fetch failed
	// transiently keeps its old copy and marks its site degraded, so a
	// flaky refetch never loses a page the world still has and the next
	// Refresh fetches it again.
	lost := map[string]bool{}
	for _, p := range pages {
		if !isChanged[p.host] {
			carry(p.id)
			continue
		}
		got, err := fetch.GetCtx(ctx, p.url)
		switch {
		case err == nil && got.Status == 200:
			batch, anns = append(batch, index.Prepare(index.Doc{URL: p.url, Title: got.Title(), Text: got.Text()})), append(anns, nil)
			st.SurfacePages++
			st.DocsAdded++
			st.DocsDeleted++
		case err != nil && resilient.ClassOf(err) == resilient.ClassTransient || err == nil && resilient.RetryableStatus(got.Status):
			lost[p.host] = true
			carry(p.id)
		default:
			st.DocsDeleted++
		}
	}
	flush()

	// Then the sites, in order: each changed site commits from the
	// pipeline at its position, after the unchanged sites before it are
	// copied. The sinks dedup against the new index.
	next := 0 // sites before next are placed
	placeUpTo := func(end int) {
		for ; next < end; next++ {
			if host := sites[next].Spec.Host; !isChanged[host] {
				for _, id := range surfaced[host] {
					carry(id)
				}
				flush()
			}
		}
	}
	reports, err := s.surfacePipeline(ctx, changed, pipelineRun{
		cfg:        cfg,
		followNext: req.FollowNext,
		filt:       req.Filter,
		fetch:      fetch,
		rt:         runRT,
		ix:         ix,
		commit: func(out *siteOutcome) {
			placeUpTo(pos[out.host])
			next++
			if lost[out.host] && out.report.Status == SiteOK {
				out.report.Status = SiteDegraded
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
	placeUpTo(len(sites))
	for _, site := range changed {
		st.DocsDeleted += len(surfaced[site.Spec.Host])
	}

	s.publish(ix)
	resp.Sites = reports
	resp.Degraded = anyNotOK(reports)
	return resp, err
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
