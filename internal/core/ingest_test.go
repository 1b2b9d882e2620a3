package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"deepweb/internal/form"
	"deepweb/internal/index"
	"deepweb/internal/resilient"
	"deepweb/internal/webgen"
	"deepweb/internal/webx"
)

func surfacedLibrary(t *testing.T) (*webgen.Web, *webx.Fetcher, *Result) {
	t.Helper()
	web := webgen.NewWeb()
	site, err := webgen.BuildSite("library", 0, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	web.AddSite(site)
	fetch := webx.NewFetcher(web)
	s := NewSurfacer(fetch, DefaultConfig())
	res, err := s.SurfaceSite(context.Background(), site.HomeURL())
	if err != nil {
		t.Fatal(err)
	}
	return web, fetch, res
}

func TestIngestFilterAdmits(t *testing.T) {
	cases := []struct {
		filt  IngestFilter
		items int
		want  bool
	}{
		{IngestFilter{}, 0, true},
		{IngestFilter{}, 10000, true},
		{IngestFilter{MinItems: 1}, 0, false},
		{IngestFilter{MinItems: 1}, 1, true},
		{IngestFilter{MaxItems: 50}, 51, false},
		{IngestFilter{MaxItems: 50}, 50, true},
		{IngestFilter{MinItems: 2, MaxItems: 5}, 3, true},
		{IngestFilter{MinItems: 2, MaxItems: 5}, 1, false},
		{IngestFilter{MinItems: 2, MaxItems: 5}, 6, false},
	}
	for _, c := range cases {
		if got := c.filt.admits(c.items); got != c.want {
			t.Errorf("admits(%+v, %d) = %v, want %v", c.filt, c.items, got, c.want)
		}
	}
}

func TestIngestFilteredRejects(t *testing.T) {
	_, fetch, res := surfacedLibrary(t)
	plain := index.New()
	stPlain := IngestURLs(context.Background(), fetch, plain, "f", res.URLs, 0, IngestFilter{})
	strict := index.New()
	stStrict := IngestURLs(context.Background(), fetch, strict, "f", res.URLs, 0, IngestFilter{MinItems: 1, MaxItems: 3})
	if stStrict.Rejected == 0 {
		t.Error("tight band rejected nothing")
	}
	if stStrict.Indexed >= stPlain.Indexed {
		t.Errorf("filtered indexed %d ≥ plain %d", stStrict.Indexed, stPlain.Indexed)
	}
	if stStrict.Indexed+stStrict.Rejected != stStrict.Fetched {
		t.Errorf("accounting off: %+v", stStrict)
	}
}

func TestIngestAnnotatesFromBinding(t *testing.T) {
	_, fetch, res := surfacedLibrary(t)
	b := index.New()
	IngestURLs(context.Background(), fetch, b, "f", res.URLs, 0, IngestFilter{})
	ix := b.Freeze()
	annotated := 0
	for id := 0; id < ix.Len(); id++ {
		anns := ix.AnnotationsOf(id)
		if len(anns) == 0 {
			continue
		}
		annotated++
		if v, ok := anns["start"]; ok {
			t.Fatalf("paging param leaked into annotations: start=%q", v)
		}
	}
	if annotated == 0 {
		t.Error("no ingested documents carry binding annotations")
	}
}

func TestBindingAnnotations(t *testing.T) {
	got := bindingAnnotations("http://h.example/results?make=ford&model=&start=10&zip=98101")
	if got["make"] != "ford" || got["zip"] != "98101" {
		t.Errorf("annotations = %v", got)
	}
	if _, ok := got["model"]; ok {
		t.Error("empty param annotated")
	}
	if _, ok := got["start"]; ok {
		t.Error("paging param annotated")
	}
	if bindingAnnotations("://bad") != nil {
		t.Error("bad URL should give nil")
	}
}

func TestIngestErrorURLs(t *testing.T) {
	web := webgen.NewWeb() // empty internet: every URL 404s
	fetch := webx.NewFetcher(web)
	ix := index.New()
	st := IngestURLs(context.Background(), fetch, ix, "f", []string{"http://nosuch.example/results?q=x"}, 0, IngestFilter{})
	if st.Errors != 1 || st.Indexed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSurfaceSiteNoFormIsPostOnly(t *testing.T) {
	// A host that exists but serves no forms at all.
	web := webgen.NewWeb()
	site, _ := webgen.BuildSite("stores", 0, 1, 10)
	web.AddSite(site)
	fetch := webx.NewFetcher(web)
	s := NewSurfacer(fetch, DefaultConfig())
	// Surface the *record* page as if it were a homepage: no form there
	// and no same-host non-query links to one.
	res, err := s.SurfaceSite(context.Background(), "http://"+site.Spec.Host+"/record?id=0")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Analysis.PostOnly || len(res.URLs) != 0 {
		t.Errorf("formless start should yield no URLs: %+v", res.Analysis)
	}
}

func TestSurfaceSiteUnreachableHomepage(t *testing.T) {
	// A 404 homepage is a definitive answer: the surfacer must fail the
	// site with a permanent-classified error (not parse the error page
	// as a form-less homepage, and not call it transient — nothing will
	// heal a host that does not exist).
	web := webgen.NewWeb()
	fetch := webx.NewFetcher(web)
	s := NewSurfacer(fetch, DefaultConfig())
	_, err := s.SurfaceSite(context.Background(), "http://nosuch.example/")
	if err == nil {
		t.Fatal("404 homepage should fail the site")
	}
	if !errors.Is(err, resilient.ErrPermanent) {
		t.Fatalf("404 homepage err = %v, want permanent classification", err)
	}
}

func TestSurfaceSiteMalformedHTML(t *testing.T) {
	// A site whose pages are tag soup must not break analysis.
	web := webgen.NewWeb()
	web.AddHandler("soup.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body><form action="/r"><select name="x"><option value="1">`)
		fmt.Fprint(w, `<li><a href="/a">x</a><table><tr><td>y`)
		fmt.Fprint(w, `<<<>>> &unknown; <p <p <input name=`)
	}))
	fetch := webx.NewFetcher(web)
	s := NewSurfacer(fetch, DefaultConfig())
	res, err := s.SurfaceSite(context.Background(), "http://soup.example/")
	if err != nil {
		t.Fatalf("surfacer failed on tag soup: %v", err)
	}
	// The soup form has one select with one option; whatever the
	// engine emits must at least not crash or loop.
	if res.ProbesUsed > DefaultConfig().ProbeBudget+5 {
		t.Errorf("budget exceeded on soup site: %d", res.ProbesUsed)
	}
}

func TestNaiveConfigDisablesSemantics(t *testing.T) {
	c := NaiveConfig()
	if c.TypedInputs || c.RangeAware || c.PerDBKeywords || c.Indexability || c.StrictExtension {
		t.Errorf("naive config leaves semantics on: %+v", c)
	}
	d := DefaultConfig()
	if !d.TypedInputs || !d.RangeAware || !d.PerDBKeywords || !d.Indexability || !d.StrictExtension {
		t.Errorf("default config missing semantics: %+v", d)
	}
}

func TestProbeKeywordsStandalone(t *testing.T) {
	web := webgen.NewWeb()
	site, _ := webgen.BuildSite("library", 0, 42, 150)
	web.AddSite(site)
	fetch := webx.NewFetcher(web)
	page, err := fetch.GetCtx(context.Background(), site.FormURL())
	if err != nil {
		t.Fatal(err)
	}
	f, err := firstForm(page)
	if err != nil {
		t.Fatal(err)
	}
	home, _ := fetch.GetCtx(context.Background(), site.HomeURL())
	seeds := SeedKeywords([]string{home.Text()}, 10)
	kws := ProbeKeywords(context.Background(), fetch, f, "q", seeds, DefaultConfig())
	if len(kws) == 0 {
		t.Fatal("standalone probing found nothing")
	}
	for _, kw := range kws {
		if strings.TrimSpace(kw) == "" {
			t.Error("empty keyword returned")
		}
	}
}

// firstForm parses the first form of a fetched page.
func firstForm(p *webx.Page) (*form.Form, error) {
	base, err := url.Parse(p.URL)
	if err != nil {
		return nil, err
	}
	return form.FromDecl(base, p.Forms()[0], 0)
}
