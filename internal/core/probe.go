package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"deepweb/internal/form"
	"deepweb/internal/htmlx"
	"deepweb/internal/textutil"
	"deepweb/internal/webx"
)

// observation is what one probe of a form teaches the surfacer: a
// content fingerprint of the result page and a structural estimate of
// how many result items it showed. Items are counted as list entries —
// a site-agnostic proxy; the engine never parses site-specific markup.
type observation struct {
	sig   textutil.Signature
	items int
	text  string
}

// prober issues form submissions against a fetch budget. All analysis
// traffic — the "off-line analysis" load of §3.2 — flows through here,
// so experiments can meter it, and cancellation is enforced here, so a
// canceled surfacing run stops within one probe round-trip. The
// context arrives per probe call (never stored — see ctxflow): the
// prober is pure budget state, the caller owns the request lifetime.
type prober struct {
	fetch  *webx.Fetcher
	budget int
	used   int
}

// The three ways a probe can fail mean three different things to the
// template search, so they must stay distinguishable: an exhausted
// budget ends the whole analysis (settle for what is learned so far),
// an unprobeable binding condemns only its template (the form cannot
// be submitted by URL — no budget was spent), and a transient fetch
// failure condemns only that one submission. Collapsing them into one
// boolean — the bug this fixes — made ISIT read a POST-only template
// or a single failed fetch as "budget empty" and abandon the remaining
// templates of a form that still had budget to spend.
var (
	// errBudget: the probe budget is exhausted.
	errBudget = errors.New("core: probe budget exhausted")
	// errUnprobeable: the binding has no submission URL (POST form).
	errUnprobeable = errors.New("core: binding not probeable by URL")
)

// stopProbing reports whether a probe error ends all further probing
// for the site: the budget ran out, or the surfacing context was
// canceled. Unprobeable bindings and transient fetch failures are NOT
// stop conditions — they condemn one template or one submission.
func stopProbing(err error) bool {
	return errors.Is(err, errBudget) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// probe issues one form submission. A nil error carries a valid
// observation; otherwise the error is errBudget, errUnprobeable, the
// context's cancellation error, or a wrapped fetch/HTTP failure (check
// with errors.Is).
func (p *prober) probe(ctx context.Context, f *form.Form, b form.Binding) (observation, error) {
	if err := ctx.Err(); err != nil {
		return observation{}, err
	}
	if p.used >= p.budget {
		return observation{}, errBudget
	}
	u := f.SubmitURL(b)
	if u == "" {
		return observation{}, errUnprobeable
	}
	p.used++
	page, err := p.fetch.GetCtx(ctx, u)
	if err != nil {
		return observation{}, fmt.Errorf("core: probe: %w", err)
	}
	if page.Status != 200 {
		return observation{}, fmt.Errorf("core: probe %s: status %d", u, page.Status)
	}
	return observe(page), nil
}

// observe fingerprints a fetched page.
func observe(page *webx.Page) observation {
	text := page.Text()
	return observation{
		sig:   textutil.SignatureOf(text),
		items: countItems(page),
		text:  text,
	}
}

// countItems estimates results-per-page structurally: the number of
// list items (or table rows, whichever dominates) on the page. Result
// listings overwhelmingly render as repeated list/row elements; the
// count only needs to be comparable across pages of the same site.
func countItems(page *webx.Page) int {
	li := len(htmlx.Find(page.Doc, "li"))
	tr := len(htmlx.Find(page.Doc, "tr"))
	if tr > li {
		return tr
	}
	return li
}

// SeedKeywords ranks the content words of the site's already-indexed
// pages (homepage and form page — what a crawler has before surfacing)
// by frequency and returns the top n as probe seeds (§4.1: "candidate
// seed keywords by selecting the words that are most characteristic of
// the already indexed web pages from the form site").
func SeedKeywords(pageTexts []string, n int) []string {
	var tz textutil.Tokenizer
	var toks []string
	tf := textutil.TermVector{}
	for _, t := range pageTexts {
		toks = tz.ContentTokensInto(toks[:0], t)
		for _, tok := range toks {
			tf[tok]++
		}
	}
	top := tf.TopTerms(n)
	out := make([]string, len(top))
	for i, w := range top {
		out[i] = w.Term
	}
	return out
}

// keywordInfo records a productive probe keyword.
type keywordInfo struct {
	kw    string
	sig   textutil.Signature
	items int
}

// ProbeKeywords runs the §4.1 iterative-probing loop standalone against
// one text input and returns the selected keywords. It exists for
// experiments that study probing in isolation (E6); SurfaceSite uses
// the same loop internally. A canceled context stops the loop between
// probe submissions and returns the keywords selected so far.
func ProbeKeywords(ctx context.Context, f *webx.Fetcher, fm *form.Form, input string, seeds []string, cfg Config) []string {
	s := NewSurfacer(f, cfg)
	s.prober = &prober{fetch: f, budget: cfg.ProbeBudget}
	kws := s.probeSearchBox(ctx, fm, input, form.Binding{}, seeds)
	out := make([]string, len(kws))
	for i, k := range kws {
		out[i] = k.kw
	}
	return out
}

// probeSearchBox runs the iterative probing loop of §4.1 for one text
// input: probe seed keywords, harvest new candidate words from result
// pages, iterate, then select a diverse subset (keywords whose result
// pages are mutually distinct).
//
// fixed holds other inputs constant during probing — the hook the
// database-selection handler uses to build per-catalog keyword sets.
func (s *Surfacer) probeSearchBox(ctx context.Context, f *form.Form, inputName string, fixed form.Binding, seeds []string) []keywordInfo {
	var (
		productive []keywordInfo
		tried      = map[string]bool{}
		pool       = append([]string(nil), seeds...)
	)
	perRound := s.Cfg.MaxValuesPerInput
	for round := 0; round <= s.Cfg.ProbeRounds && len(pool) > 0; round++ {
		harvest := textutil.TermVector{}
		probed := 0
		for _, kw := range pool {
			if tried[kw] || probed >= perRound {
				continue
			}
			tried[kw] = true
			probed++
			b := fixed.Clone()
			b[inputName] = kw
			obs, err := s.prober.probe(ctx, f, b)
			if stopProbing(err) || errors.Is(err, errUnprobeable) {
				// No budget left, run canceled, or the input can never
				// be probed: further keywords cannot fare better.
				break
			}
			if err != nil {
				continue // one submission failed; the next may not
			}
			if obs.items > 0 {
				productive = append(productive, keywordInfo{kw: kw, sig: obs.sig, items: obs.items})
				s.toks = s.tz.ContentTokensInto(s.toks[:0], obs.text)
				for _, tok := range s.toks {
					if !tried[tok] {
						harvest[tok]++
					}
				}
			}
		}
		next := harvest.TopTerms(perRound)
		pool = pool[:0]
		for _, w := range next {
			pool = append(pool, w.Term)
		}
	}
	return selectDiverse(productive, s.Cfg.MaxValuesPerInput)
}

// selectDiverse keeps up to k keywords preferring ones that surface
// result pages not already covered — the paper's "selecting the ones
// that ensure diversity of result pages".
func selectDiverse(kws []keywordInfo, k int) []keywordInfo {
	// Stable order: by items descending, then keyword, so selection is
	// deterministic.
	sorted := append([]keywordInfo(nil), kws...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].items != sorted[j].items {
			return sorted[i].items > sorted[j].items
		}
		return sorted[i].kw < sorted[j].kw
	})
	seen := map[textutil.Signature]bool{}
	var out, dup []keywordInfo
	for _, kw := range sorted {
		if !seen[kw.sig] {
			seen[kw.sig] = true
			out = append(out, kw)
		} else {
			dup = append(dup, kw)
		}
	}
	// Fill remaining slots with duplicates-by-signature if there is
	// room; they still contribute result items.
	for _, kw := range dup {
		if len(out) >= k {
			break
		}
		out = append(out, kw)
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}
