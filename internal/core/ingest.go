package core

import (
	"context"
	"net/url"
	"strings"

	"deepweb/internal/index"
	"deepweb/internal/webx"
)

// Ingestion: surfaced URLs become ordinary index documents (§3.2 — "the
// URLs resulting from these submissions are generated off-line and
// indexed in a search engine like any other HTML page"). The only
// deep-web-specific bit is the Source attribution carried for impact
// accounting; ranking never sees it.

// DocSink is where ingestion delivers documents. *index.Index satisfies
// it directly; internal/surface's concurrent pipeline substitutes a
// buffering sink so fetched documents can be committed — and doc ids
// assigned — at a single ordered point regardless of worker
// interleaving.
type DocSink interface {
	// Has reports whether the URL is already present (ingestion skips it).
	Has(url string) bool
	// Add inserts a document, returning its id and whether it was new.
	Add(d index.Doc) (id int, added bool)
	// Annotate attaches surfacing-time annotations to an added document.
	Annotate(docID int, anns map[string]string)
}

// IngestStats reports one ingestion run.
type IngestStats struct {
	Fetched   int // URLs fetched (including paging continuations)
	Indexed   int // documents newly added
	EmptyPage int // fetched pages with no result items (indexed anyway)
	Rejected  int // pages outside the admission band (filtered runs)
	Errors    int
}

// IngestFilter is the §5.2 index-admission criterion: a surfaced page
// is a good index candidate only when its result count sits in
// [MinItems, MaxItems]. Zero values disable the respective bound.
type IngestFilter struct {
	MinItems int
	MaxItems int
}

func (fl IngestFilter) admits(items int) bool {
	if fl.MaxItems > 0 && items > fl.MaxItems {
		return false
	}
	if fl.MinItems > 0 && items < fl.MinItems {
		return false
	}
	return true
}

// IngestURLs fetches each surfaced URL and inserts it into the index
// with the given source attribution. followNext > 0 additionally walks
// up to that many "next page" continuations per URL — the index-refresh
// crawling the paper says discovers more content over time. A canceled
// context stops between fetches; the stats cover the work done so far.
func IngestURLs(ctx context.Context, f *webx.Fetcher, ix DocSink, source string, urls []string, followNext int) IngestStats {
	return IngestURLsFiltered(ctx, f, ix, source, urls, followNext, IngestFilter{})
}

// IngestURLsFiltered is IngestURLs with the §5.2 admission criterion
// applied per fetched page ("the pages we extract should neither have
// too many results on a single surfaced page nor too few").
func IngestURLsFiltered(ctx context.Context, f *webx.Fetcher, ix DocSink, source string, urls []string, followNext int, filt IngestFilter) IngestStats {
	var st IngestStats
	for _, u := range urls {
		if ctx.Err() != nil {
			break
		}
		st.ingestOne(ctx, f, ix, source, u, followNext, filt)
	}
	return st
}

func (st *IngestStats) ingestOne(ctx context.Context, f *webx.Fetcher, ix DocSink, source, u string, followNext int, filt IngestFilter) {
	cur := u
	for hop := 0; ; hop++ {
		if ctx.Err() != nil || ix.Has(cur) {
			return
		}
		page, err := f.GetCtx(ctx, cur)
		if err != nil || page.Status != 200 {
			st.Errors++
			return
		}
		st.Fetched++
		items := countItems(page)
		if items == 0 {
			st.EmptyPage++
		}
		if !filt.admits(items) {
			st.Rejected++
		} else if id, added := ix.Add(index.Doc{
			URL:    cur,
			Title:  page.Title(),
			Text:   page.Text(),
			Source: source,
		}); added {
			st.Indexed++
			// §5.1: the inputs filled to generate this page are known
			// — keep them as annotations the index can exploit.
			ix.Annotate(id, bindingAnnotations(cur))
		}
		if hop >= followNext {
			return
		}
		next := nextPageLink(page)
		if next == "" {
			return
		}
		cur = next
	}
}

// bindingAnnotations recovers the form binding from a surfaced URL's
// query string: every non-empty parameter except paging controls is an
// (input, value) pair the surfacer chose.
func bindingAnnotations(raw string) map[string]string {
	u, err := url.Parse(raw)
	if err != nil {
		return nil
	}
	out := map[string]string{}
	for key, vals := range u.Query() {
		switch key {
		case "start", "offset", "page":
			continue
		}
		if len(vals) > 0 && vals[0] != "" {
			out[key] = vals[0]
		}
	}
	return out
}

// nextPageLink finds a paging continuation: a link whose query contains
// a start/offset/page parameter pointing back at the same path.
func nextPageLink(p *webx.Page) string {
	for _, l := range p.Links() {
		if strings.Contains(l, "start=") || strings.Contains(l, "offset=") || strings.Contains(l, "page=") {
			return l
		}
	}
	return ""
}
