// Package webx is the crawling substrate: a fetcher that parses pages as
// it retrieves them, and a breadth-first crawler with page and per-host
// budgets. The surfacing engine uses the fetcher to probe forms; the
// search engine uses the crawler to ingest the surface web and, after
// surfacing, to pursue links out of deep-web result pages (paper §3.2:
// "the web crawler will discover more content over time by pursuing
// links from deep-web pages").
package webx

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"deepweb/internal/htmlx"
)

// Page is a fetched, parsed page.
type Page struct {
	URL    string
	Status int
	HTML   string
	Doc    *htmlx.Node
}

// Text returns the page's visible text.
func (p *Page) Text() string { return htmlx.VisibleText(p.Doc) }

// Title returns the <title> text, or "".
func (p *Page) Title() string {
	if t := htmlx.Find(p.Doc, "title"); len(t) > 0 {
		return strings.TrimSpace(htmlx.VisibleText(t[0]))
	}
	return ""
}

// Links returns the page's out-links resolved against its own URL.
func (p *Page) Links() []string {
	base, err := url.Parse(p.URL)
	if err != nil {
		return nil
	}
	return htmlx.ExtractLinks(p.Doc, base)
}

// Forms returns the page's forms as semantic declarations.
func (p *Page) Forms() []htmlx.FormDecl { return htmlx.ExtractForms(p.Doc) }

// Fetcher retrieves and parses pages over a transport (in production the
// network; in experiments the virtual internet).
type Fetcher struct {
	client *http.Client
	// Timeout bounds each fetch (0 = none). It composes with the
	// caller's context: whichever deadline is earlier wins.
	Timeout time.Duration
}

// NewFetcher wraps a transport.
func NewFetcher(rt http.RoundTripper) *Fetcher {
	return &Fetcher{client: &http.Client{Transport: rt}}
}

// do runs one request: applies the per-fetch timeout, reads the body,
// parses. Capping the body is the transport's job.
func (f *Fetcher) do(req *http.Request, u string, cancel context.CancelFunc) (*Page, error) {
	defer cancel()
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("webx: %s %s: %w", strings.ToLower(req.Method), u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("webx: read %s: %w", u, err)
	}
	html := string(body)
	return &Page{URL: u, Status: resp.StatusCode, HTML: html, Doc: htmlx.Parse(html)}, nil
}

// fetchCtx derives the request context: the caller's ctx, tightened by
// the per-fetch timeout when one is set.
func (f *Fetcher) fetchCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(ctx, f.Timeout)
	}
	return ctx, func() {}
}

// GetCtx fetches and parses one page under ctx. Non-2xx statuses are
// returned as pages, not errors: error pages are real observations the
// surfacer reasons about.
func (f *Fetcher) GetCtx(ctx context.Context, u string) (*Page, error) {
	rctx, cancel := f.fetchCtx(ctx)
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("webx: get %s: %w", u, err)
	}
	return f.do(req, u, cancel)
}

// PostCtx submits a form body under ctx and parses the response; the
// mediator's path to POST forms (the surfacer never calls this).
func (f *Fetcher) PostCtx(ctx context.Context, u, body string) (*Page, error) {
	rctx, cancel := f.fetchCtx(ctx)
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, u, strings.NewReader(body))
	if err != nil {
		cancel()
		return nil, fmt.Errorf("webx: post %s: %w", u, err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return f.do(req, u, cancel)
}

// Crawler walks the link graph breadth-first.
type Crawler struct {
	Fetcher *Fetcher
	// MaxPages bounds the total pages fetched (0 = unlimited).
	MaxPages int
	// FollowQuery controls whether URLs with query strings are followed.
	// The pre-surfacing crawl keeps this false: query URLs are exactly
	// the deep-web space the crawler cannot enumerate on its own.
	FollowQuery bool
}

// Crawl BFS-walks from the seeds and returns fetched pages in crawl
// order. Duplicate URLs are fetched once; fetch errors skip the URL. A
// canceled ctx stops the walk at the next fetch and returns the pages
// crawled so far.
func (c *Crawler) Crawl(ctx context.Context, seeds ...string) []*Page {
	var (
		queue []string
		seen  = map[string]bool{}
		pages []*Page
	)
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		if ctx.Err() != nil {
			break
		}
		if c.MaxPages > 0 && len(pages) >= c.MaxPages {
			break
		}
		u := queue[0]
		queue = queue[1:]
		page, err := c.Fetcher.GetCtx(ctx, u)
		if err != nil {
			continue
		}
		if page.Status != http.StatusOK {
			continue
		}
		pages = append(pages, page)
		for _, l := range page.Links() {
			if seen[l] {
				continue
			}
			if !c.FollowQuery && strings.Contains(l, "?") {
				continue
			}
			seen[l] = true
			queue = append(queue, l)
		}
	}
	return pages
}
